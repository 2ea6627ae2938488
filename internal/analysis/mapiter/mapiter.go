// Package mapiter flags `for … := range <map>` loops whose bodies look
// order-sensitive. Go randomizes map iteration order per run, so any
// observable effect that depends on visit order is nondeterminism the
// simulator cannot afford. The blessed idiom is sortedPages in
// proto/errors.go: collect the keys, slices.Sort them, then do the real
// work over the sorted slice.
//
// The body check is a conservative syntactic allowlist, not a proof. A
// loop passes when every statement is one of:
//
//   - an append-accumulation `xs = append(xs, …)` (the collect-then-sort
//     first half);
//   - an integer compound assignment (`n += v`, `n++`, `n |= v`, …) —
//     integer reduction is associative and commutative, float reduction is
//     not and stays flagged;
//   - a write indexed by the loop's own key variable (`dst[k] = v`): each
//     iteration touches a distinct element, so order cannot matter;
//   - `delete(m, k)`;
//   - control flow (if/for/switch/block/continue) whose nested statements
//     all pass.
//
// Anything else — ordinary assignments, function calls, channel sends,
// early exits — is reported. Genuinely order-insensitive loops the
// heuristic cannot see through carry `//dsmvet:allow mapiter — <why>`.
package mapiter

import (
	"go/ast"
	"go/token"
	"go/types"

	"godsm/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "mapiter",
	Doc: "flag range-over-map loops with order-dependent effects; collect keys and " +
		"slices.Sort them (proto/errors.go sortedPages idiom) or annotate //dsmvet:allow mapiter",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rng.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			c := &checker{info: pass.TypesInfo, key: keyIdent(rng)}
			if c.stmts(rng.Body.List) {
				return true
			}
			pass.Reportf(rng.Pos(),
				"map iteration order is nondeterministic and this loop's effects look order-sensitive; "+
					"collect keys then slices.Sort (proto/errors.go sortedPages idiom), or annotate //dsmvet:allow mapiter with a justification")
			return true
		})
	}
	return nil
}

// keyIdent returns the loop's key variable, or nil for `for range m`.
func keyIdent(rng *ast.RangeStmt) *ast.Ident {
	if id, ok := rng.Key.(*ast.Ident); ok && id.Name != "_" {
		return id
	}
	return nil
}

type checker struct {
	info *types.Info
	key  *ast.Ident
}

func (c *checker) stmts(list []ast.Stmt) bool {
	for _, s := range list {
		if !c.stmt(s) {
			return false
		}
	}
	return true
}

func (c *checker) stmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.BlockStmt:
		return c.stmts(s.List)
	case *ast.IfStmt:
		return c.stmt(s.Init) && c.stmts(s.Body.List) && c.stmt(s.Else)
	case *ast.ForStmt:
		return c.stmt(s.Init) && c.stmt(s.Post) && c.stmts(s.Body.List)
	case *ast.RangeStmt:
		return c.stmts(s.Body.List)
	case *ast.SwitchStmt:
		return c.stmt(s.Init) && c.stmts(s.Body.List)
	case *ast.CaseClause:
		return c.stmts(s.Body)
	case *ast.DeclStmt:
		return true // a per-iteration local; its uses are checked where they land
	case *ast.IncDecStmt:
		return c.integer(s.X)
	case *ast.AssignStmt:
		return c.assign(s)
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		return c.isBuiltin(call, "delete")
	default:
		return false
	}
}

// assign accepts the three order-insensitive assignment shapes: append
// accumulation, integer compound assignment, and key-indexed element writes.
func (c *checker) assign(s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN,
		token.XOR_ASSIGN, token.MUL_ASSIGN:
		return len(s.Lhs) == 1 && c.integer(s.Lhs[0])
	case token.ASSIGN, token.DEFINE:
		if len(s.Lhs) != len(s.Rhs) {
			return false
		}
		for i, lhs := range s.Lhs {
			if call, ok := s.Rhs[i].(*ast.CallExpr); ok && c.isBuiltin(call, "append") {
				continue
			}
			if c.keyIndexed(lhs) {
				continue
			}
			if s.Tok == token.DEFINE {
				continue // fresh per-iteration local
			}
			return false
		}
		return true
	default:
		return false
	}
}

// keyIndexed reports whether e is `x[k]` where k is the loop's key
// variable: each iteration then writes a distinct element.
func (c *checker) keyIndexed(e ast.Expr) bool {
	if c.key == nil {
		return false
	}
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	id, ok := ix.Index.(*ast.Ident)
	return ok && c.info.Uses[id] != nil && c.info.Uses[id] == c.info.Defs[c.key]
}

func (c *checker) integer(e ast.Expr) bool {
	tv, ok := c.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func (c *checker) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := c.info.Uses[id].(*types.Builtin)
	return isBuiltin
}
