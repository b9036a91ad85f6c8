package vetrules

import (
	"go/ast"
	"go/types"

	"noble/internal/vetrules/analysis"
)

// Metriclabels is /metrics cardinality protection. Prometheus-style
// label values become map keys and histogram families; feeding them
// request-derived strings (session IDs, model names from the wire,
// header values) grows the metrics endpoint without bound and is a
// memory-exhaustion vector. The analyzer checks that every label/kind
// string reaching a metrics or tracer sink is *bounded*: built from
// string literals and constants, possibly flowing through in-package
// parameters and struct fields whose writers are themselves all
// bounded (e.g. Batcher.kind, set once from a literal in NewEngine, or
// an endpoint label, the operation table's literal metric field, read
// in mount).
//
// Sinks: Metrics.Observe / ObserveBatch / ObserveBatchFire /
// ObserveBatchDrop / registerBatchKind (label is argument 0) and obs.Begin / AddSpan /
// AddBatchSpan (stage/kind is argument 1 — the obs package makes a
// histogram per distinct stage name on first use).
var Metriclabels = &analysis.Analyzer{
	Name: "metriclabels",
	Doc: "metric label/kind strings passed to Metrics.Observe* or obs stage APIs must come from " +
		"a bounded constant set, never request-derived data",
	Run: runMetriclabels,
}

// metricsSinkArg maps method names on a receiver type named "Metrics"
// to the index of their label argument.
var metricsSinkArg = map[string]int{
	"Observe":           0,
	"ObserveBatch":      0,
	"ObserveBatchFire":  0,
	"ObserveBatchDrop":  0,
	"registerBatchKind": 0,
}

// obsSinkArg maps obs package functions to the index of their
// stage/kind argument.
var obsSinkArg = map[string]int{
	"Begin":        1,
	"AddSpan":      1,
	"AddBatchSpan": 1,
}

func runMetriclabels(pass *analysis.Pass) error {
	bc := newBoundChecker(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			idx := -1
			if i, ok := metricsSinkArg[sel.Sel.Name]; ok && exprTypeName(pass.TypesInfo, sel.X) == "Metrics" {
				idx = i
			} else if i, ok := obsSinkArg[sel.Sel.Name]; ok && isObsPkgSelector(pass, sel) {
				idx = i
			}
			if idx < 0 || idx >= len(call.Args) {
				return true
			}
			if !bc.bounded(call.Args[idx], 0) {
				pass.Reportf(call.Args[idx].Pos(),
					"unbounded metric label reaches %s: label/kind strings must derive from constants, "+
						"not request data (/metrics cardinality)",
					sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}

// boundChecker decides whether a string expression can only ever hold
// values from a finite, compile-time-known set. The analysis is
// package-local and flow-insensitive: a parameter is bounded iff every
// in-package call site passes a bounded argument; a struct field is
// bounded iff every in-package write stores a bounded value.
type boundChecker struct {
	pass *analysis.Pass
	// memo holds per-object verdicts; an entry inserted as true before
	// recursion doubles as the cycle-breaker (a value defined only in
	// terms of itself has no unbounded source).
	memo     map[types.Object]bool
	assigns  []*ast.AssignStmt
	lits     []*ast.CompositeLit
	calls    []*ast.CallExpr
	paramIdx map[*types.Var]paramSlot
}

type paramSlot struct {
	fn  *types.Func
	idx int
}

const maxBoundDepth = 8

func newBoundChecker(pass *analysis.Pass) *boundChecker {
	bc := &boundChecker{
		pass:     pass,
		memo:     map[types.Object]bool{},
		paramIdx: map[*types.Var]paramSlot{},
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				bc.assigns = append(bc.assigns, n)
			case *ast.CompositeLit:
				bc.lits = append(bc.lits, n)
			case *ast.CallExpr:
				bc.calls = append(bc.calls, n)
			case *ast.FuncDecl:
				if fn, ok := pass.TypesInfo.Defs[n.Name].(*types.Func); ok && n.Type.Params != nil {
					i := 0
					for _, field := range n.Type.Params.List {
						for _, name := range field.Names {
							if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
								bc.paramIdx[v.Origin()] = paramSlot{fn.Origin(), i}
							}
							i++
						}
						if len(field.Names) == 0 {
							i++
						}
					}
				}
			}
			return true
		})
	}
	return bc
}

func (bc *boundChecker) bounded(e ast.Expr, depth int) bool {
	if depth > maxBoundDepth {
		return false
	}
	e = ast.Unparen(e)
	if tv, ok := bc.pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return true // constant expression of any shape
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		return bc.bounded(e.X, depth+1) && bc.bounded(e.Y, depth+1)
	case *ast.CallExpr:
		// string(...) conversions keep boundedness; real calls don't.
		if tv, ok := bc.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return bc.bounded(e.Args[0], depth+1)
		}
		return false
	case *ast.Ident:
		return bc.boundedObject(bc.pass.TypesInfo.ObjectOf(e), depth)
	case *ast.SelectorExpr:
		return bc.boundedObject(bc.pass.TypesInfo.ObjectOf(e.Sel), depth)
	}
	return false
}

func (bc *boundChecker) boundedObject(obj types.Object, depth int) bool {
	if obj == nil {
		return false
	}
	if _, ok := obj.(*types.Const); ok {
		return true
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	v = v.Origin()
	if v.Pkg() != bc.pass.Pkg {
		// A field or variable declared elsewhere (r.URL.Path, an
		// imported package var): its writers are invisible to this
		// package-local analysis, so it cannot be proven bounded.
		return false
	}
	if verdict, ok := bc.memo[v]; ok {
		return verdict
	}
	bc.memo[v] = true // in-progress: break cycles optimistically
	var verdict bool
	switch {
	case v.IsField():
		verdict = bc.fieldBounded(v, depth)
	default:
		if slot, ok := bc.paramIdx[v]; ok {
			verdict = bc.paramBounded(slot, depth)
		} else {
			verdict = bc.localBounded(v, depth)
		}
	}
	bc.memo[v] = verdict
	return verdict
}

// fieldBounded: every in-package write to the field stores a bounded
// value — plain assignments and composite literals (keyed or
// positional). A field nobody writes holds only its zero value.
func (bc *boundChecker) fieldBounded(fld *types.Var, depth int) bool {
	for _, as := range bc.assigns {
		for i, lhs := range as.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			w, ok := bc.pass.TypesInfo.ObjectOf(sel.Sel).(*types.Var)
			if !ok || w.Origin() != fld {
				continue
			}
			rhs := pairedRHS(as, i)
			if rhs == nil || !bc.bounded(rhs, depth+1) {
				return false
			}
		}
	}
	for _, lit := range bc.lits {
		st := litStruct(bc.pass.TypesInfo, lit)
		if st == nil {
			continue
		}
		for i, elt := range lit.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				w, ok := bc.pass.TypesInfo.ObjectOf(key).(*types.Var)
				if !ok || w.Origin() != fld {
					continue
				}
				if !bc.bounded(kv.Value, depth+1) {
					return false
				}
			} else if i < st.NumFields() && st.Field(i).Origin() == fld {
				if !bc.bounded(elt, depth+1) {
					return false
				}
			}
		}
	}
	return true
}

// paramBounded: every in-package call site passes a bounded argument at
// the parameter's position. Zero visible call sites is vacuously
// bounded (the function may be exported; its other packages are
// analysed in their own pass).
func (bc *boundChecker) paramBounded(slot paramSlot, depth int) bool {
	for _, call := range bc.calls {
		fn := calleeFunc(bc.pass.TypesInfo, call)
		if fn == nil || fn != slot.fn {
			continue
		}
		if slot.idx >= len(call.Args) {
			continue // variadic tail not supplied
		}
		if call.Ellipsis.IsValid() && slot.idx == len(call.Args)-1 {
			return false // slice splat: contents unknowable here
		}
		if !bc.bounded(call.Args[slot.idx], depth+1) {
			return false
		}
	}
	return true
}

// localBounded: every assignment and initialiser of a local (or
// package-level) variable is bounded. A var with no visible writes and
// no initialiser is just "".
func (bc *boundChecker) localBounded(v *types.Var, depth int) bool {
	for _, as := range bc.assigns {
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			w, ok := bc.pass.TypesInfo.ObjectOf(id).(*types.Var)
			if !ok || w.Origin() != v {
				continue
			}
			rhs := pairedRHS(as, i)
			if rhs == nil || !bc.bounded(rhs, depth+1) {
				return false
			}
		}
	}
	for _, f := range bc.pass.Files {
		ok := true
		ast.Inspect(f, func(n ast.Node) bool {
			vs, isSpec := n.(*ast.ValueSpec)
			if !isSpec || !ok {
				return true
			}
			for i, name := range vs.Names {
				w, isVar := bc.pass.TypesInfo.Defs[name].(*types.Var)
				if !isVar || w.Origin() != v {
					continue
				}
				if len(vs.Values) == len(vs.Names) {
					if !bc.bounded(vs.Values[i], depth+1) {
						ok = false
					}
				} else if len(vs.Values) > 0 {
					ok = false // multi-value initialiser
				}
			}
			return true
		})
		if !ok {
			return false
		}
	}
	return true
}

// litStruct resolves a composite literal to its struct type (through
// pointers and named types), or nil for slice/map/array literals.
func litStruct(info *types.Info, lit *ast.CompositeLit) *types.Struct {
	tv, ok := info.Types[lit]
	if !ok {
		return nil
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}
