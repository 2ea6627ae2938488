// A wire file of the fixture, named like proto's: message literals and the
// header size may be spelled here, and only here.
package chargecost

type Message struct{ Src, Dst, Size int }

type Costs struct{ HeaderBytes int }

// msg is the one constructor.
func msg(n *Node, dst, body int) *Message {
	return &Message{Dst: dst, Size: n.C.HeaderBytes + body}
}
