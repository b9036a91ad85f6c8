package vetrules

import (
	"go/ast"
	"go/token"

	"noble/internal/vetrules/analysis"
)

// Readonlyinfer enforces the rule PR-2's BlockDense race taught us:
// inference paths are read-only. Model layers run concurrently for many
// requests over shared weights; a Forward that caches activations
// outside the training guard corrupts a neighbouring request's pass.
//
// Three checks:
//
//  1. In a method named Forward with a bool parameter named "train",
//     every write to a receiver field must be training-gated: inside an
//     `if` whose condition mentions train, or after an early
//     `if !train { ... return }`.
//
//  2. Methods whose name starts with "Predict" (the public inference
//     entry points) must not write receiver fields at all.
//
//  3. A Forward with exactly one parameter and no train flag is a
//     quantized inference layer (the qlinear.Layer shape, which has no
//     training mode at all): it must not write receiver fields, ever.
//     Loss Forwards (pred, target) take two parameters and keep their
//     Backward caches.
//
//  4. inferInPlace, the element-wise layers' inference transform that
//     Sequential runs on a matrix it owns, may overwrite its argument
//     but never a receiver field: it is a train=false Forward without
//     the copy.
var Readonlyinfer = &analysis.Analyzer{
	Name: "readonlyinfer",
	Doc: "inference paths are read-only: Forward(train=false) and Predict* methods must not " +
		"write receiver state outside a train guard",
	Run: runReadonlyinfer,
}

func runReadonlyinfer(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil || decl.Recv == nil {
				continue
			}
			switch {
			case decl.Name.Name == "Forward" && hasBoolParamNamed(decl, "train"):
				checkForwardWrites(pass, decl)
			case decl.Name.Name == "Forward" && paramCount(decl) == 1:
				checkQuantForwardWrites(pass, decl)
			case decl.Name.Name == "inferInPlace":
				checkInPlaceWrites(pass, decl)
			case len(decl.Name.Name) > len("Predict") && decl.Name.Name[:len("Predict")] == "Predict":
				checkPredictWrites(pass, decl)
			}
		}
	}
	return nil
}

// paramCount counts declared parameters, honouring grouped names
// (`a, b int` is two).
func paramCount(decl *ast.FuncDecl) int {
	if decl.Type.Params == nil {
		return 0
	}
	n := 0
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			n++ // unnamed parameter
			continue
		}
		n += len(field.Names)
	}
	return n
}

func hasBoolParamNamed(decl *ast.FuncDecl, want string) bool {
	if decl.Type.Params == nil {
		return false
	}
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == want {
				if id, ok := field.Type.(*ast.Ident); ok && id.Name == "bool" {
					return true
				}
			}
		}
	}
	return false
}

// receiverWrites collects assignments (and ++/--) whose target is
// rooted at the method receiver: recv.f, recv.f[i], recv.f.g, ...
func receiverWrites(pass *analysis.Pass, decl *ast.FuncDecl) []ast.Node {
	recv := receiverVar(pass.TypesInfo, decl)
	if recv == nil {
		return nil
	}
	rooted := func(e ast.Expr) bool {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.Ident:
				return pass.TypesInfo.Uses[x] == recv
			default:
				return false
			}
		}
	}
	var writes []ast.Node
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				// A plain ident LHS (even the receiver itself) only
				// rebinds a local; selectors/indexes rooted at the
				// receiver mutate shared state.
				if _, plain := ast.Unparen(lhs).(*ast.Ident); plain {
					continue
				}
				if rooted(lhs) {
					writes = append(writes, lhs)
				}
			}
		case *ast.IncDecStmt:
			if rooted(n.X) {
				writes = append(writes, n.X)
			}
		}
		return true
	})
	return writes
}

func checkForwardWrites(pass *analysis.Pass, decl *ast.FuncDecl) {
	writes := receiverWrites(pass, decl)
	if len(writes) == 0 {
		return
	}

	// Gate style A: enclosing `if <cond mentions train>`.
	// Gate style B: an earlier `if <cond mentions !train> { ...; return }`.
	var earlyReturnEnds []token.Pos
	type guardRange struct{ lo, hi token.Pos }
	var guards []guardRange
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if !mentionsIdent(ifs.Cond, "train") {
			return true
		}
		guards = append(guards, guardRange{ifs.Pos(), ifs.End()})
		if endsInReturn(ifs.Body) {
			earlyReturnEnds = append(earlyReturnEnds, ifs.End())
		}
		return true
	})

	for _, w := range writes {
		gated := false
		for _, g := range guards {
			if g.lo <= w.Pos() && w.End() <= g.hi {
				gated = true
				break
			}
		}
		if !gated {
			for _, e := range earlyReturnEnds {
				if e <= w.Pos() {
					gated = true
					break
				}
			}
		}
		if !gated {
			pass.Reportf(w.Pos(),
				"receiver write in Forward outside a train guard: inference runs concurrently over "+
					"shared layers, so ungated writes race (the BlockDense bug) — gate with `if train` "+
					"or an early `if !train { return }`",
			)
		}
	}
}

// checkQuantForwardWrites handles the single-parameter Forward of the
// quantized inference tier: there is no train mode, so any receiver
// write is a concurrency bug.
func checkQuantForwardWrites(pass *analysis.Pass, decl *ast.FuncDecl) {
	for _, w := range receiverWrites(pass, decl) {
		pass.Reportf(w.Pos(),
			"receiver write in single-parameter Forward: quantized inference layers have no "+
				"training mode and run concurrently over shared weights — keep all scratch state "+
				"in locals",
		)
	}
}

// checkInPlaceWrites handles inferInPlace: it writes the matrix it is
// given, which Sequential allocated for this one pass, and nothing the
// concurrent passes over the same layer share.
func checkInPlaceWrites(pass *analysis.Pass, decl *ast.FuncDecl) {
	for _, w := range receiverWrites(pass, decl) {
		pass.Reportf(w.Pos(),
			"receiver write in inferInPlace: it is an inference pass over a shared layer — "+
				"write only the matrix it is given",
		)
	}
}

func checkPredictWrites(pass *analysis.Pass, decl *ast.FuncDecl) {
	for _, w := range receiverWrites(pass, decl) {
		pass.Reportf(w.Pos(),
			"receiver write in %s: Predict entry points are inference paths and must be read-only "+
				"(concurrent requests share this receiver)",
			decl.Name.Name)
	}
}

func mentionsIdent(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
			return false
		}
		return true
	})
	return found
}

func endsInReturn(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BlockStmt:
		return endsInReturn(last)
	default:
		return false
	}
}
