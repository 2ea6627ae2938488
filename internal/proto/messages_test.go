package proto

import (
	"reflect"
	"slices"
	"testing"

	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
)

// wireSample is a payload with the wire size the hand-written formulas of
// every earlier commit gave it at 8 processors under DefaultCosts: 40 header
// bytes, 24 request bytes, 8 per write notice, 4 per vector-time entry.
// build sends it from n to node 5 as kind; pl points at the sample payload.
type wireSample struct {
	name     string
	kind     netsim.Kind
	pl       payload
	build    func(n *Node) *netsim.Message
	reliable bool
	size     int
}

// sample makes the wireSample that sends pl as kind.
func sample[P any, PP interface {
	*P
	payload
}](name string, kind netsim.Kind, pl P, reliable bool, size int) wireSample {
	return wireSample{name: name, kind: kind, pl: PP(&pl), reliable: reliable, size: size,
		build: func(n *Node) *netsim.Message { return msg[P, PP](n, 5, kind, pl) }}
}

// wireSamples is one sample per message kind, more where a kind has variants.
func wireSamples() []wireSample {
	iv := func(pages int) *lrc.Interval { // 8 + 4*8 + 8*pages bytes on the wire
		return lrc.NewInterval(lrc.IntervalID{}, nil, make([]pagemem.PageID, pages))
	}
	ids := func(n int) []lrc.IntervalID { return make([]lrc.IntervalID, n) }
	vc := lrc.NewVC(8)
	cur := make([]byte, pagemem.PageSize)
	for i := 8; i < 24; i++ {
		cur[i] = 0xFF
	}
	diff := pagemem.MakeDiff(3, make([]byte, pagemem.PageSize), cur) // one run of 16 bytes: 8 + 4 + 16
	acq := msgLockAcq{Lock: 1, Requester: 2, VC: vc, Seq: 1}
	return []wireSample{
		sample("diff-req", KindDiffReq, msgDiffReq{From: 1, Page: 3, Wants: ids(3)}, true, 40+24+8*3),
		sample("diff-reply", KindDiffReply, msgDiffReply{Page: 3, Items: []diffItem{{Diff: diff}, {Diff: nil}}}, true, 40+(12+28)+12),
		sample("pf-req/diff", KindPfReq, msgDiffReq{From: 1, Page: 3, Wants: ids(1), Prefetch: true}, false, 40+24+8),
		sample("pf-req/page", KindPfReq, msgPageReq{From: 1, Page: 3, Need: ids(2), Prefetch: true}, false, 40+24+12*2),
		sample("pf-reply/diff", KindPfReply, msgDiffReply{Page: 3, Items: []diffItem{{Diff: diff}}, Prefetch: true}, false, 40+12+28),
		sample("pf-reply/page", KindPfReply, msgPageReply{Page: 3, Covers: ids(1), Prefetch: true}, false, 40+4096+12),
		sample("lock-acq", KindLockAcq, acq, true, 40+24+32),
		sample("lock-fwd", KindLockForward, acq, true, 40+24+32),
		sample("lock-retry", KindLockRetry, acq, true, 40+24+32),
		sample("lock-grant/2 intervals", KindLockGrant, msgLockGrant{Lock: 1, VC: vc, Ivs: []*lrc.Interval{iv(1), iv(3)}}, true, 40+32+48+64),
		sample("lock-return/empty", KindLockReturn, msgLockGrant{Lock: 1, VC: vc}, true, 40+32),
		sample("bar-arrive/leaf", KindBarArrive, msgBarArrive{From: 1, VC: vc, Ivs: []*lrc.Interval{iv(2)}, DiffBytes: 1 << 20, Acc: make([]PageAcc, 2)}, true, 40+32+56+24*2),
		sample("bar-arrive/interior", KindBarArrive, msgBarArrive{From: 1, VC: vc, MinVC: vc, GCWant: true, Ivs: []*lrc.Interval{iv(2)}, Acc: make([]PageAcc, 2)}, true, 40+8+64+56+24*2),
		sample("bar-release/moves", KindBarRelease, msgBarRelease{VC: vc, Ivs: []*lrc.Interval{iv(1)}, GC: true, Moves: make([]HomeMove, 3)}, true, 40+32+48+16*3),
		sample("gc-done", KindGCDone, msgGCDone{From: 1}, true, 40),
		sample("gc-flush", KindGCFlush, msgGCFlush{}, true, 40),
		sample("eager-notice", KindEagerNotice, msgEagerNotice{Iv: iv(2)}, true, 40+8+32+16),
		sample("home-flush", KindHomeFlush, msgHomeFlush{From: 1, Page: 3, Diff: diff}, true, 40+20+28),
		sample("home-flush/empty", KindHomeFlush, msgHomeFlush{From: 1, Page: 3}, true, 40+20),
		sample("page-req", KindPageReq, msgPageReq{From: 1, Page: 3, Need: ids(2)}, true, 40+24+12*2),
		sample("page-reply", KindPageReply, msgPageReply{Page: 3, Covers: ids(2)}, true, 40+4096+12*2),
		sample("gossip", KindGossip, msgGossip{From: 1, Ivs: []*lrc.Interval{iv(1), iv(3)}}, true, 40+8+48+64),
		sample("home-xfer", KindHomeXfer, msgHomeXfer{From: 1, Page: 3, Applied: vc}, true, 40+4096+32+8),
	}
}

// TestWireSizes pins the wire format: the one constructor must give every
// kind's payload the size, addressing and transport class its send site
// used to spell by hand, and carry a copy of the payload. Only prefetch
// traffic is droppable, and not even that under PfReliable.
func TestWireSizes(t *testing.T) {
	costs := DefaultCosts()
	n := &Node{ID: 1, N: 8, C: &costs, wires: new(WirePool)}
	sampled := make(map[netsim.Kind]bool)
	for _, s := range wireSamples() {
		n.pfReliable = true
		if !s.build(n).Reliable {
			t.Errorf("%s: droppable under PfReliable", s.name)
		}
		n.pfReliable = false
		m := s.build(n)
		if m.Size != s.size {
			t.Errorf("%s: %d bytes on the wire, want %d", s.name, m.Size, s.size)
		}
		if m.Src != 1 || m.Dst != 5 || m.Kind != s.kind || m.Reliable != s.reliable || !sameExported(m.Payload, s.pl) || m.Seq != 0 || m.Ack != 0 {
			t.Errorf("%s: built %+v", s.name, *m)
		}
		listed := false
		for _, p := range kinds[s.kind].payloads {
			listed = listed || reflect.TypeOf(p) == reflect.TypeOf(s.pl)
		}
		if !listed {
			t.Errorf("%s: the kind table does not list payload %T for %s", s.name, s.pl, KindName(s.kind))
		}
		sampled[s.kind] = true
	}
	for k := netsim.Kind(0); k < numKinds; k++ {
		if !sampled[k] && kinds[k].owner != ownTransport {
			t.Errorf("no wire-size sample for kind %s", KindName(k))
		}
	}
}

// sameExported reports whether payloads a and b, pointers to structs, are
// of one type and agree on every exported field.
func sameExported(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() {
		return false
	}
	va, vb = va.Elem(), vb.Elem()
	for i := range va.NumField() {
		if va.Type().Field(i).IsExported() && !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return false
		}
	}
	return true
}

// TestMessageIsOneAllocation: a fresh message and its payload are one
// allocation, for every kind, plus the copy of a request's ids or a reply's
// items when there are more than the one kept inline, and a lock message's
// copy of its vector time and of a grant's records; a message taken from
// the wire pool allocates nothing. The reply owns its items: overwriting the
// sender's scratch after msg leaves the sent payload as it was (a request's
// ids are TestDiffReqsOutliveTheScratch's).
func TestMessageIsOneAllocation(t *testing.T) {
	costs := DefaultCosts()
	n := &Node{ID: 1, N: 8, C: &costs, wires: new(WirePool)}
	for _, s := range wireSamples() {
		want := 1.0
		switch pl := s.pl.(type) {
		case *msgDiffReply:
			if len(pl.Items) > 1 {
				want = 2
			}
		case *msgDiffReq:
			if len(pl.Wants) > 1 {
				want = 2
			}
		case *msgLockAcq:
			want = 2
		case *msgLockGrant:
			want = 2
			if len(pl.Ivs) > 0 {
				want = 3
			}
		}
		if got := testing.AllocsPerRun(100, func() { s.build(n) }); got != want {
			t.Errorf("%s: building the message allocates %v times, want %v", s.name, got, want)
		}
	}
	diff := wordDiff(0, 42)
	for _, k := range []int{1, 3} {
		items := make([]diffItem, k)
		for i := range items {
			items[i] = diffItem{ID: lrc.IntervalID{Node: 1, Seq: int32(i + 1)}, Diff: diff}
		}
		sent := slices.Clone(items)
		rep := msg(n, 5, KindDiffReply, msgDiffReply{Page: 3, Items: items}).Payload.(*msgDiffReply)
		clear(items)
		if !slices.Equal(rep.Items, sent) {
			t.Errorf("%d items: overwriting the sender's scratch changed the sent reply to %v", k, rep.Items)
		}
	}
	for _, s := range wireSamples() {
		if n.wires.free(s.pl) == nil {
			continue
		}
		n.wires.release(s.build(n))
		if got := testing.AllocsPerRun(100, func() { n.wires.release(s.build(n)) }); got != 0 {
			t.Errorf("%s: a message from the pool allocates %v times, want 0", s.name, got)
		}
	}
}

// TestPooledWireCarriesOnlyItsPayload: a message taken from the pool is the
// released one, with the new payload and a fresh header — none of the old
// ids, items, prefetch tag or transport sequence and ack — and a released
// reply holds no diff, in its items or in the storage behind them.
func TestPooledWireCarriesOnlyItsPayload(t *testing.T) {
	costs := DefaultCosts()
	n := &Node{ID: 1, N: 8, C: &costs, wires: new(WirePool)}
	id := func(seq int32) lrc.IntervalID { return lrc.IntervalID{Node: 2, Seq: seq} }
	diff := wordDiff(0, 42)

	old := msg(n, 5, KindPfReq, msgDiffReq{From: 1, Page: 3, Wants: []lrc.IntervalID{id(1), id(2), id(3)}, Prefetch: true})
	old.Seq, old.Ack = 7, 9
	n.wires.release(old)
	m := msg(n, 4, KindDiffReq, msgDiffReq{From: 1, Page: 6, Wants: []lrc.IntervalID{id(4)}})
	want := msg(&Node{ID: 1, N: 8, C: &costs, wires: new(WirePool)}, 4, KindDiffReq, msgDiffReq{From: 1, Page: 6, Wants: []lrc.IntervalID{id(4)}})
	if m != old || m.Payload.(*msgDiffReq).Prefetch || !sameExported(m.Payload, want.Payload) ||
		m.Seq != 0 || m.Ack != 0 || m.Size != want.Size || m.Reliable != want.Reliable || m.Kind != KindDiffReq || m.Dst != 4 {
		t.Errorf("reused request %+v carries %+v, want %+v with %+v", *m, m.Payload, *want, want.Payload)
	}

	items := []diffItem{{ID: id(1), Diff: diff}, {ID: id(2), Diff: diff}, {ID: id(3), Diff: diff}}
	old = msg(n, 5, KindPfReply, msgDiffReply{Page: 3, Items: items, Prefetch: true})
	rep := old.Payload.(*msgDiffReply)
	n.wires.release(old)
	for _, it := range append(rep.Items[:cap(rep.Items)], rep.one[:]...) {
		if it.Diff != nil {
			t.Errorf("a released reply still holds a diff: %+v", it)
		}
	}
	m = msg(n, 4, KindDiffReply, msgDiffReply{Page: 6, Items: items[:1]})
	if m != old || rep.Prefetch || rep.Page != 6 || !slices.Equal(rep.Items, items[:1]) || m.Size != 40+12+diff.WireSize() {
		t.Errorf("reused reply %+v carries %+v", *m, *rep)
	}

	vc := lrc.VC{1, 2, 3, 4, 5, 6, 7, 8}
	old = msg(n, 5, KindLockForward, msgLockAcq{Lock: 1, Requester: 2, VC: vc, Seq: 3, PrevSeq: 2})
	n.wires.release(old)
	newVC := lrc.NewVC(8)
	newVC[1] = 9
	m = msg(n, 4, KindLockAcq, msgLockAcq{Lock: 4, Requester: 1, VC: newVC, Seq: 1})
	acq := m.Payload.(*msgLockAcq)
	newVC[1] = 10 // the sender's live vector time moves on
	if m != old || acq.Lock != 4 || acq.Requester != 1 || acq.Seq != 1 || acq.PrevSeq != 0 ||
		!slices.Equal(acq.VC, lrc.VC{0, 9, 0, 0, 0, 0, 0, 0}) || m.Kind != KindLockAcq || m.Dst != 4 {
		t.Errorf("reused acquire %+v carries %+v, want the new request with VC [0 9 0 …]", *m, *acq)
	}

	ivs := []*lrc.Interval{lrc.NewInterval(id(1), vc, nil), lrc.NewInterval(id(2), vc, nil)}
	old = msg(n, 5, KindLockGrant, msgLockGrant{Lock: 1, VC: vc, Ivs: ivs})
	g := old.Payload.(*msgLockGrant)
	n.wires.release(old)
	if slices.ContainsFunc(g.Ivs[:cap(g.Ivs)], func(iv *lrc.Interval) bool { return iv != nil }) {
		t.Errorf("a released grant still holds a record: %v", g.Ivs[:cap(g.Ivs)])
	}
	m = msg(n, 4, KindLockReturn, msgLockGrant{Lock: 2, VC: newVC, Ivs: ivs[1:]})
	if m != old || g.Lock != 2 || !slices.Equal(g.VC, newVC) || !slices.Equal(g.Ivs, ivs[1:]) || m.Size != 40+32+40 {
		t.Errorf("reused grant %+v carries %+v", *m, *g)
	}
}

// TestKindTableTotal: every kind has a row — a unique name, an owner, the
// payload types it carries — only prefetch traffic and the pure ack are
// datagrams, and KindName rejects anything past the table.
func TestKindTableTotal(t *testing.T) {
	names := make(map[string]netsim.Kind)
	for k := netsim.Kind(0); k < numKinds; k++ {
		row := kinds[k]
		if row.name == "" || row.owner == 0 {
			t.Errorf("kind %d has no table row: %+v", k, row)
			continue
		}
		if prev, dup := names[row.name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, row.name)
		}
		names[row.name] = k
		if KindName(k) != row.name {
			t.Errorf("KindName(%d) = %q, want %q", k, KindName(k), row.name)
		}
		if (len(row.payloads) == 0) != (row.owner == ownTransport) {
			t.Errorf("%s: %d payload types under owner %d", row.name, len(row.payloads), row.owner)
		}
		for _, p := range row.payloads {
			if _, pages := p.(pagePayload); row.drop != nil && !pages {
				t.Errorf("%s has a drop event but payload %T names no page", row.name, p)
			}
		}
		wantDatagram := k == KindPfReq || k == KindPfReply || k == KindAck
		if row.datagram != wantDatagram {
			t.Errorf("%s: datagram = %v", row.name, row.datagram)
		}
		if (row.drop != nil) != (k == KindPfReq || k == KindPfReply) {
			t.Errorf("%s: unexpected drop-event setting", row.name)
		}
	}
	defer func() {
		if _, ok := recover().(*InvariantError); !ok {
			t.Errorf("KindName(numKinds) did not raise an InvariantError")
		}
	}()
	KindName(numKinds)
}

// TestDispatchRejectsStrangers: dispatch hands a message to the one owner of
// its kind, so a kind nobody owns and a payload its owner does not know both
// end in the structured invariant failure.
func TestDispatchRejectsStrangers(t *testing.T) {
	for _, m := range []*netsim.Message{
		{Src: 0, Dst: 1, Kind: KindAck},
		{Src: 0, Dst: 1, Kind: KindGCDone, Payload: &msgGossip{}},
		{Src: 0, Dst: 1, Kind: KindGossip, Payload: &msgGossip{}}, // no gossiper configured
		{Src: 0, Dst: 1, Kind: KindPageReq, Payload: &msgPageReq{}},
	} {
		func() {
			defer func() {
				ie, ok := recover().(*InvariantError)
				if !ok || ie.Node != 1 {
					t.Errorf("dispatch of kind %s payload %T: recovered %v, want node 1's InvariantError",
						KindName(m.Kind), m.Payload, ie)
				}
			}()
			newRig(2).nodes[1].dispatch(m)
		}()
	}
}
