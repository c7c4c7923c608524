// The intoalias analyzer. The write-into kernel layer (PR 6) reads its
// inputs while streaming its destination: MulVecInto(dst, x) with
// dst == x overwrites x[i] before row i+1 reads it, and the CGLS solvers
// treat b and dst as disjoint residual/iterate storage. The operators do
// not (and for zero-alloc reasons cannot) defensively copy, so aliasing
// is silent numeric corruption. The analyzer flags every call to a
// write-into kernel whose destination argument is syntactically identical
// to one of its inputs — the provable aliasing case; distinct expressions
// naming overlapping memory remain the caller's responsibility.

package analysis

import (
	"go/ast"
	"go/types"
)

// linalgPkg is the package whose write-into kernels are checked.
const linalgPkg = "adaptivemm/internal/linalg"

// intoFuncs maps package-level linalg functions to the argument indices
// of (dst, inputs).
var intoFuncs = map[string]struct {
	dst  int
	srcs []int
}{
	"MulVecInto":        {dst: 1, srcs: []int{2}}, // MulVecInto(op, dst, x)
	"MulVecTInto":       {dst: 1, srcs: []int{2}}, // MulVecTInto(op, dst, y)
	"MulVecRangeInto":   {dst: 1, srcs: []int{2}}, // MulVecRangeInto(op, dst, x, lo, hi)
	"SolveCGLSInto":     {dst: 2, srcs: []int{1}}, // SolveCGLSInto(a, b, dst, o, ws)
	"SolveNormalCGInto": {dst: 2, srcs: []int{1}},
	"SolveSymCGInto":    {dst: 2, srcs: []int{1}},
}

// intoMethods maps method names (on any operator/solver type) to the
// argument indices of (dst, inputs): MulVecInto(dst, x) and friends.
var intoMethods = map[string]struct {
	dst  int
	srcs []int
}{
	"MulVecInto":      {dst: 0, srcs: []int{1}},
	"MulVecTInto":     {dst: 0, srcs: []int{1}},
	"MulVecRangeInto": {dst: 0, srcs: []int{1}}, // op.MulVecRangeInto(dst, x, lo, hi)
	"AnswerInto":      {dst: 0, srcs: []int{1}}, // TreeSolver.AnswerInto(dst, x, ws)
	"SolveLSInto":     {dst: 0, srcs: []int{1}}, // TreeSolver.SolveLSInto(dst, y, ws)
	"MulQueriesInto":  {dst: 0, srcs: []int{1}},
}

// IntoAlias flags write-into kernel calls whose destination provably
// aliases an input.
var IntoAlias = &Analyzer{
	Name: "intoalias",
	Doc: "write-into kernels (MulVecInto, Solve*Into, ...) must not be called with a destination " +
		"that aliases an input: the kernels stream dst while reading the inputs",
	Run: runIntoAlias,
}

func runIntoAlias(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			dst, srcs, ok := intoArgs(pass, call)
			if !ok {
				return true
			}
			d := exprString(ast.Unparen(dst))
			for _, s := range srcs {
				if exprString(ast.Unparen(s)) == d {
					pass.Reportf(call.Pos(),
						"destination %s aliases input of %s: the kernel streams its destination while reading this input; use a separate buffer",
						d, callName(call))
				}
			}
			return true
		})
	}
	return nil
}

// intoArgs resolves a call to a write-into kernel and returns its
// destination and input arguments.
func intoArgs(pass *Pass, call *ast.CallExpr) (dst ast.Expr, srcs []ast.Expr, ok bool) {
	obj := calleeObj(pass.TypesInfo, call)
	fn, isFn := obj.(*types.Func)
	if !isFn {
		return nil, nil, false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig {
		return nil, nil, false
	}
	if sig.Recv() == nil {
		spec, tracked := intoFuncs[fn.Name()]
		if !tracked || fn.Pkg() == nil || fn.Pkg().Path() != linalgPkg {
			return nil, nil, false
		}
		return pick(call, spec.dst, spec.srcs)
	}
	spec, tracked := intoMethods[fn.Name()]
	if !tracked {
		return nil, nil, false
	}
	return pick(call, spec.dst, spec.srcs)
}

func pick(call *ast.CallExpr, dstIdx int, srcIdxs []int) (ast.Expr, []ast.Expr, bool) {
	if dstIdx >= len(call.Args) {
		return nil, nil, false
	}
	var srcs []ast.Expr
	for _, i := range srcIdxs {
		if i < len(call.Args) {
			srcs = append(srcs, call.Args[i])
		}
	}
	return call.Args[dstIdx], srcs, len(srcs) > 0
}

// callName renders the called function for diagnostics.
func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "call"
}
