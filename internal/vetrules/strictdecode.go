package vetrules

import (
	"go/ast"
	"go/types"

	"noble/internal/vetrules/analysis"
)

// strictDecodeImplMarker blesses the one function in a package that is
// allowed to touch the raw request body with a JSON decoder: the shared
// strict decoder itself. Everything else goes through it.
const strictDecodeImplMarker = "//vet:strictdecode-impl"

// Strictdecode pins the request-decoding discipline PR-2/PR-3
// established: handlers decode bodies through the strict decoder
// (serve's exchange.decode: size cap → 413, trailing-garbage rejection →
// 400, typed error) and surface failures through the serve/errors.go
// code table. A handler that reaches for json.NewDecoder(r.Body),
// io.ReadAll(r.Body), fmt.Errorf, errors.New, or http.Error bypasses
// the size caps and emits errors no client can dispatch on.
//
// "Handler" means any function that can answer a request: one with an
// http.ResponseWriter parameter, or with a receiver or parameter whose
// struct type carries one as a field (serve's per-request exchange).
// The blessed decoder carries //vet:strictdecode-impl in its doc
// comment, and a package may bless exactly one: a second strict decoder
// is a second place for the size cap, the trailing-garbage check and
// the error mapping to drift apart.
var Strictdecode = &analysis.Analyzer{
	Name: "strictdecode",
	Doc: "HTTP handlers must decode request bodies via the package's one strict decoder and map errors through " +
		"the typed error table — no raw json.Decoder/io.ReadAll on r.Body, no fmt.Errorf/errors.New/http.Error",
	Run: runStrictdecode,
}

func runStrictdecode(pass *analysis.Pass) error {
	var blessed *ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			if !hasResponseWriterParam(pass.TypesInfo, decl) {
				continue
			}
			if docHasDirective(decl.Doc, strictDecodeImplMarker) {
				if blessed != nil {
					pass.Reportf(decl.Pos(),
						"%s is a second %s in this package (%s is the first): handlers share one strict decoder",
						decl.Name.Name, strictDecodeImplMarker, blessed.Name.Name)
				} else {
					blessed = decl
				}
				continue
			}
			checkStrictdecodeFunc(pass, decl)
		}
	}
	return nil
}

func hasResponseWriterParam(info *types.Info, decl *ast.FuncDecl) bool {
	for _, list := range []*ast.FieldList{decl.Recv, decl.Type.Params} {
		if list == nil {
			continue
		}
		for _, field := range list.List {
			if answersRequests(info.TypeOf(field.Type)) {
				return true
			}
		}
	}
	return false
}

// answersRequests reports whether t is an http.ResponseWriter or (a
// pointer to) a struct with one as a field.
func answersRequests(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if isNetHTTPType(t, "ResponseWriter") {
		return true
	}
	st, ok := t.Underlying().(*types.Struct)
	for i := 0; ok && i < st.NumFields(); i++ {
		if isNetHTTPType(st.Field(i).Type(), "ResponseWriter") {
			return true
		}
	}
	return false
}

func isNetHTTPType(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

func checkStrictdecodeFunc(pass *analysis.Pass, decl *ast.FuncDecl) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isPkgCall(pass.TypesInfo, call, "json", "NewDecoder") && len(call.Args) == 1 &&
			mentionsRequestBody(pass.TypesInfo, call.Args[0]):
			pass.Reportf(call.Pos(),
				"handler %s decodes the request body with a raw json.Decoder: use the strict decoder "+
					"(size cap, trailing-garbage rejection, typed errors)",
				decl.Name.Name)
		case isPkgCall(pass.TypesInfo, call, "io", "ReadAll") && len(call.Args) == 1 &&
			mentionsRequestBody(pass.TypesInfo, call.Args[0]):
			pass.Reportf(call.Pos(),
				"handler %s reads the raw request body: use the strict decoder, or justify the "+
					"read with //vet:ignore strictdecode",
				decl.Name.Name)
		case isPkgCall(pass.TypesInfo, call, "fmt", "Errorf"),
			isPkgCall(pass.TypesInfo, call, "errors", "New"):
			pass.Reportf(call.Pos(),
				"handler %s constructs an untyped error: map failures through the serve/errors.go "+
					"code table (errf/AsError) so clients get a machine-readable code",
				decl.Name.Name)
		case isPkgCall(pass.TypesInfo, call, "http", "Error"):
			pass.Reportf(call.Pos(),
				"handler %s writes a plain-text http.Error: respond with the typed JSON error "+
					"body (exchange.fail)",
				decl.Name.Name)
		}
		return true
	})
}

// mentionsRequestBody reports whether the expression tree contains a
// selector <expr>.Body where <expr> is an *http.Request.
func mentionsRequestBody(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Body" {
			return true
		}
		if isNetHTTPType(info.TypeOf(sel.X), "Request") {
			found = true
			return false
		}
		return true
	})
	return found
}
