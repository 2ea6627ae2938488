// Fixture for the chargecost analyzer, shaped like proto.Node: Send is the
// raw injected network hook, xmit the transport entry, sendAfter the
// charging helper. Direct raw calls are flagged; the helper's own call is
// the annotated choke point. This file is not a wire file (see messages.go
// beside it), so spelling the wire format here is flagged as well.
package chargecost

type Time int64

type Node struct {
	C *Costs
	// Send transmits on the simulated network; injected by wiring.
	Send func(*Message) Time
}

func (n *Node) xmit(m *Message) {}

// sendAfter is the charging helper: its xmit call is the audited choke
// point.
func (n *Node) sendAfter(t Time, m *Message) {
	n.xmit(m) //dsmvet:allow chargecost — choke point under test
}

func bad(n *Node, m *Message) {
	n.Send(m) // want `direct Node\.Send bypasses the costs\.go charging helpers`
	n.xmit(m) // want `direct Node\.xmit bypasses the costs\.go charging helpers`
}

func good(n *Node, m *Message) {
	n.sendAfter(0, m)
	n.sendAfter(0, n.msg(1, 24))
}

func handBuilt(n *Node) {
	size := n.C.HeaderBytes + 24                 // want `Costs\.HeaderBytes read outside the wire module`
	n.sendAfter(0, &Message{Dst: 1, Size: size}) // want `netsim\.Message literal outside the wire module`
	var byValue = Message{Dst: 2}                // want `netsim\.Message literal outside the wire module`
	_ = byValue
}

// otherSend is a different type's Send: out of scope. So are another type's
// HeaderBytes and a literal of another type.
type courier struct{ HeaderBytes int }

func (courier) Send(m *Message) Time { return 0 }

func unrelated(c courier, m *Message) int {
	c.Send(m)
	return courier{HeaderBytes: 8}.HeaderBytes
}
