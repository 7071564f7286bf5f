// Package nolockfast enforces //mesh:lockfree annotations: a function
// whose doc comment carries the marker is a declared lock-free fast path
// (the seqlock read/write protocols, the remote-free push, the radix
// Lookup, the shuffle-vector hot ops) and must stay allocation-free,
// lock-free, and non-blocking. Inside an annotated function the pass
// forbids:
//
//   - allocation: make/new/append, heap composite literals (&T{...},
//     slice and map literals), closures, string<->[]byte conversions;
//   - map operations: index, range, delete, clear;
//   - blocking: channel send/receive/range/close, select without a
//     default, spawning goroutines;
//   - calls to anything except (a) other //mesh:lockfree functions or
//     interface methods — checked transitively, since every annotated
//     function is itself checked — (b) sync/atomic and math/bits,
//     (c) runtime.Gosched (the seqlock's polite spin), (d) unsafe and
//     non-allocating builtins, or (e) type conversions that do not
//     allocate. Dynamic calls through function values are forbidden too:
//     the checker cannot see through them, so they must sit on marked
//     slow paths.
//
// A line that is a deliberate fast-path exit — error construction, the
// write-fault hook, a slow-path refill — carries a "//mesh:slowpath"
// comment (on the line or the line above), which silences the pass for
// that line only. The annotation therefore reads: "everything in this
// function except the marked slow-path lines is lock-free".
//
// Interface methods can carry the marker on their declaration inside the
// interface; implementations are then obliged (and checked) separately,
// while callers through the interface get credit for calling an
// annotated method.
package nolockfast

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Marker annotates a declared lock-free fast path.
const Marker = "mesh:lockfree"

// SlowPathMarker silences the pass for one deliberate slow-path line.
const SlowPathMarker = "mesh:slowpath"

// New returns the nolockfast analyzer.
func New() *analysis.Analyzer {
	states := map[*analysis.Module]*modState{}
	return &analysis.Analyzer{
		Name: "nolockfast",
		Doc:  "enforce //mesh:lockfree annotations on declared fast paths",
		Run: func(pass *analysis.Pass) error {
			st := states[pass.Module]
			if st == nil {
				st = &modState{mod: pass.Module, ann: map[string]map[types.Object]bool{}}
				states[pass.Module] = st
			}
			return run(pass, st)
		},
	}
}

// modState caches the per-package annotation sets of one module.
type modState struct {
	mod *analysis.Module
	ann map[string]map[types.Object]bool
}

// annotated reports whether fn's declaration (function, method, or
// interface method) carries the //mesh:lockfree marker. A call through an
// instantiated generic type or function resolves to an instance; its
// Origin is the declared object.
func (st *modState) annotated(fn *types.Func) bool {
	fn = fn.Origin()
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	pi := st.mod.Package(pkg.Path())
	if pi == nil {
		return false
	}
	set, ok := st.ann[pkg.Path()]
	if !ok {
		set = buildAnnotations(pi)
		st.ann[pkg.Path()] = set
	}
	return set[fn]
}

// buildAnnotations scans a package's syntax for marked declarations.
func buildAnnotations(pi *analysis.PackageInfo) map[types.Object]bool {
	set := map[types.Object]bool{}
	for _, f := range pi.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if analysis.HasMarker(d.Doc, Marker) {
					if obj := pi.Info.Defs[d.Name]; obj != nil {
						set[obj] = true
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					iface, ok := ts.Type.(*ast.InterfaceType)
					if !ok {
						continue
					}
					for _, m := range iface.Methods.List {
						if len(m.Names) == 1 && analysis.HasMarker(m.Doc, Marker) {
							if obj := pi.Info.Defs[m.Names[0]]; obj != nil {
								set[obj] = true
							}
						}
					}
				}
			}
		}
	}
	return set
}

func run(pass *analysis.Pass, st *modState) error {
	// Ensure this package's own annotations are indexed before checking.
	if _, ok := st.ann[pass.Pkg.PkgPath]; !ok {
		st.ann[pass.Pkg.PkgPath] = buildAnnotations(pass.Pkg)
	}
	supp := analysis.NewSuppressor(pass.Fset, pass.Pkg.Files, SlowPathMarker)
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !analysis.HasMarker(fd.Doc, Marker) {
				continue
			}
			checkFunc(pass, st, supp, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, st *modState, supp *analysis.Suppressor, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	name := fd.Name.Name
	flag := func(pos token.Pos, format string, args ...any) {
		if supp.Suppressed(pass.Fset, pos) {
			return
		}
		args = append([]any{name}, args...)
		pass.Reportf(pos, "%s is //mesh:lockfree but "+format, args...)
	}
	// Channel operations inside a select-with-default are non-blocking
	// tries; collect them so the generic send/recv checks skip them.
	exempt := map[ast.Node]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			hasDefault := false
			for _, cc := range n.Body.List {
				if c, ok := cc.(*ast.CommClause); ok && c.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				flag(n.Pos(), "blocks in a select with no default case")
				return true
			}
			for _, cc := range n.Body.List {
				c, ok := cc.(*ast.CommClause)
				if !ok || c.Comm == nil {
					continue
				}
				ast.Inspect(c.Comm, func(x ast.Node) bool {
					switch x := x.(type) {
					case *ast.SendStmt:
						exempt[x] = true
					case *ast.UnaryExpr:
						if x.Op == token.ARROW {
							exempt[x] = true
						}
					}
					return true
				})
			}
		case *ast.SendStmt:
			if !exempt[n] {
				flag(n.Arrow, "sends on a channel")
			}
		case *ast.UnaryExpr:
			switch n.Op {
			case token.ARROW:
				if !exempt[n] {
					flag(n.OpPos, "receives from a channel")
				}
			case token.AND:
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					flag(n.OpPos, "heap-allocates a composite literal")
				}
			}
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if t != nil {
				switch types.Unalias(t).Underlying().(type) {
				case *types.Slice:
					flag(n.Pos(), "allocates a slice literal")
				case *types.Map:
					flag(n.Pos(), "allocates a map literal")
				}
			}
		case *ast.FuncLit:
			flag(n.Pos(), "allocates a closure")
			return false
		case *ast.IndexExpr:
			if t := info.Types[n.X].Type; t != nil {
				if _, ok := types.Unalias(t).Underlying().(*types.Map); ok {
					flag(n.Pos(), "accesses a map")
				}
			}
		case *ast.RangeStmt:
			if t := info.Types[n.X].Type; t != nil {
				switch types.Unalias(t).Underlying().(type) {
				case *types.Map:
					flag(n.Pos(), "ranges over a map")
				case *types.Chan:
					flag(n.Pos(), "ranges over a channel")
				}
			}
		case *ast.GoStmt:
			flag(n.Pos(), "spawns a goroutine")
		case *ast.CallExpr:
			checkCall(pass, st, flag, n)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, st *modState, flag func(token.Pos, string, ...any), c *ast.CallExpr) {
	info := pass.Pkg.Info

	// Type conversion: allocation-free unless it crosses string<->[]byte.
	if tv, ok := info.Types[c.Fun]; ok && tv.IsType() && len(c.Args) == 1 {
		to := tv.Type
		from := info.Types[c.Args[0]].Type
		if from != nil && allocatingConversion(to, from) {
			flag(c.Pos(), "converts between string and byte/rune slice, which allocates")
		}
		return
	}

	// Builtins (including unsafe's): only the allocating and channel/map
	// ones are forbidden.
	if b := builtinOf(info, c); b != nil {
		switch b.Name() {
		case "make", "new", "append":
			flag(c.Pos(), "allocates (%s)", b.Name())
		case "delete":
			flag(c.Pos(), "deletes from a map")
		case "clear":
			flag(c.Pos(), "calls clear")
		case "close":
			flag(c.Pos(), "closes a channel")
		}
		return
	}

	fn := calleeFunc(info, c)
	if fn == nil {
		flag(c.Pos(), "makes a dynamic call the checker cannot see through; only static, annotated callees are allowed on the fast path")
		return
	}
	if pkg := fn.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "sync/atomic", "math/bits":
			return
		case "sync":
			flag(c.Pos(), "uses sync primitive %s; lock-free fast paths must not lock or block", fn.FullName())
			return
		}
	}
	if fn.FullName() == "runtime.Gosched" {
		return // the seqlock retry loop's polite spin
	}
	if st.annotated(fn) {
		return
	}
	flag(c.Pos(), "calls %s, which is not marked //mesh:lockfree", fn.FullName())
}

// allocatingConversion reports string <-> []byte/[]rune conversions.
func allocatingConversion(to, from types.Type) bool {
	isString := func(t types.Type) bool {
		b, ok := types.Unalias(t).Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := types.Unalias(t).Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := types.Unalias(s.Elem()).Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isString(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isString(from))
}

func builtinOf(info *types.Info, c *ast.CallExpr) *types.Builtin {
	switch f := ast.Unparen(c.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[f].(*types.Builtin); ok {
			return b
		}
	case *ast.SelectorExpr: // unsafe.Sizeof and friends
		if b, ok := info.Uses[f.Sel].(*types.Builtin); ok {
			return b
		}
	}
	return nil
}

// calleeFunc resolves a call to its static *types.Func, or nil.
func calleeFunc(info *types.Info, c *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(c.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
