// Package chargecost keeps every message a protocol node emits paid for and
// spelled in one place. The cost model's per-message send charge
// (Costs.MsgSend and friends) is applied at the send site by the charging
// helpers in proto/costs.go — post, and sendAfter beneath it — which route
// through the transport choke point. A direct call to the raw network hook
// (Node.Send) or the transport entry (Node.xmit) skips the charge: the
// message leaves the node for free and the busy/overhead breakdowns drift
// from the wire traffic.
//
// What a message is — its kind, its payload, its size on the wire — is
// equally a measured quantity (the paper's tables report messages and
// KBytes), so it is declared once, in proto/messages.go: a netsim.Message
// composite literal, or a read of the wire header size Costs.HeaderBytes,
// anywhere but the wire files (messages.go, costs.go where the field is
// declared, transport.go for the payload-less pure ack) is flagged too.
//
// The helpers themselves, and the transport's retransmission paths (which
// charge MsgSend before re-sending), are the audited exceptions and carry
// `//dsmvet:allow chargecost` annotations.
package chargecost

import (
	"go/ast"
	"path/filepath"

	"godsm/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "chargecost",
	Doc: "flag direct Node.Send/Node.xmit calls that bypass the costs.go charging " +
		"helpers (post/sendAfter), and netsim.Message literals or Costs.HeaderBytes reads " +
		"outside the wire module; no message leaves a node for free or sized by hand",
	Run: run,
}

// raw names the Node members that transmit without charging CPU cost.
var raw = map[string]bool{"Send": true, "xmit": true}

// wireFiles may spell the wire format.
var wireFiles = map[string]bool{"messages.go": true, "costs.go": true, "transport.go": true}

func run(pass *framework.Pass) error {
	typeName := func(e ast.Expr) string {
		return framework.NamedTypeName(pass.TypesInfo.Types[e].Type)
	}
	for _, f := range pass.Files {
		wire := wireFiles[filepath.Base(pass.Fset.Position(f.Pos()).Filename)]
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && raw[sel.Sel.Name] && typeName(sel.X) == "Node" {
					pass.Reportf(n.Pos(),
						"direct Node.%s bypasses the costs.go charging helpers; use post/sendAfter so the send cost is charged",
						sel.Sel.Name)
				}
			case *ast.CompositeLit:
				if !wire && typeName(n) == "Message" {
					pass.Reportf(n.Pos(),
						"netsim.Message literal outside the wire module; build it with Node.msg so its kind and size come from messages.go")
				}
			case *ast.SelectorExpr:
				if !wire && n.Sel.Name == "HeaderBytes" && typeName(n.X) == "Costs" {
					pass.Reportf(n.Pos(),
						"Costs.HeaderBytes read outside the wire module; message sizes are computed in messages.go")
				}
			}
			return true
		})
	}
	return nil
}
