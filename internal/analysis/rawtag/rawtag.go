// Package rawtag flags the legacy tag-based communication API outside the
// packages that own it.
//
// PR 1 fixed a real bug of this class: two call sites reused a hand-picked
// gather tag, so two logically distinct collectives shared a transport tag
// space and crosstalked (the "magic gather tag"). The Communicator's
// (op, step) addressing makes that collision structurally impossible, but
// only if callers actually use it — this analyzer is the ratchet that keeps
// hand-numbered tags from creeping back in. It reports:
//
//   - calls to the legacy tag-taking free functions of internal/collective
//     (RingAllReduce, AllToAll, Gather, ...), whose tags are caller-picked
//     integers with no collision protection;
//   - comm.Transport.Send/Recv calls whose tag argument is an integer
//     literal — a hand-numbered tag on the raw fabric.
//
// internal/collective and internal/comm are exempt: they implement the tag
// machinery and must speak raw tags.
package rawtag

import (
	"go/ast"
	"go/constant"
	"go/token"
	"strings"

	"embrace/internal/analysis"
)

// legacyFuncs are the tag-taking package-level collectives; every one has a
// Communicator (op, step) replacement.
var legacyFuncs = map[string]string{
	"Barrier":               "(*Communicator).Barrier",
	"Broadcast":             "(*Communicator).Broadcast",
	"ReduceScatter":         "(*Communicator).ReduceScatter",
	"RingAllReduce":         "(*Communicator).AllReduce",
	"RingAllReduceOp":       "(*Communicator).AllReduceWith",
	"AllGather":             "AllGatherVia",
	"AllToAll":              "AllToAllVia",
	"Gather":                "GatherVia",
	"SparseAllGather":       "(*Communicator).SparseAllGather",
	"SparseAllToAll":        "(*Communicator).AlltoAllSparse",
	"HierarchicalAllReduce": "(*Communicator).AllReduce",
}

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "rawtag",
	Doc:  "forbid legacy integer-tag collectives and literal-tag Transport sends outside internal/collective and internal/comm",
	Run:  run,
}

// exempt reports whether the unit owns the tag machinery.
func exempt(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	return strings.HasSuffix(path, "internal/collective") || strings.HasSuffix(path, "internal/comm")
}

func run(pass *analysis.Pass) (any, error) {
	if exempt(pass.Pkg.Path()) {
		return nil, nil
	}
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		if strings.HasSuffix(analysis.PkgPathOf(fn), "internal/collective") && analysis.ReceiverType(fn) == nil {
			if repl, ok := legacyFuncs[fn.Name()]; ok {
				pass.Reportf(call.Pos(),
					"legacy tag-based collective.%s: migrate to the Communicator (op, step) API (%s)", fn.Name(), repl)
				return true
			}
		}
		if recv := analysis.ReceiverType(fn); recv != nil &&
			recv.Obj().Name() == "Transport" && recv.Obj().Pkg() != nil &&
			strings.HasSuffix(recv.Obj().Pkg().Path(), "internal/comm") {
			var tagArg ast.Expr
			switch fn.Name() {
			case "Send", "Recv":
				if len(call.Args) >= 2 {
					tagArg = call.Args[1]
				}
			}
			if tagArg != nil && (isIntLiteral(tagArg) || isConstInt(pass, tagArg)) {
				pass.Reportf(call.Pos(),
					"raw Transport.%s with a hand-numbered tag literal: allocate tags via Communicator.Tag (op, step)", fn.Name())
			}
		}
		return true
	})
	return nil, nil
}

// isIntLiteral matches 7, -7, +7 and parenthesized forms: the hand-numbered
// tags the Communicator exists to eliminate.
func isIntLiteral(e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return v.Kind == token.INT
	case *ast.UnaryExpr:
		return (v.Op == token.SUB || v.Op == token.ADD) && isIntLiteral(v.X)
	}
	return false
}

// isConstInt matches named constants and constant arithmetic (a magic tag
// hidden behind `const gatherTag = 9999` is still a magic tag). Tags minted
// by Communicator.Tag are runtime values and never constant.
func isConstInt(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil && tv.Value.Kind() == constant.Int
}
