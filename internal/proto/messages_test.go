package proto

import (
	"reflect"
	"testing"

	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
)

// wireSample is a payload with the wire size the hand-written formulas of
// every earlier commit gave it at 8 processors under DefaultCosts: 40 header
// bytes, 24 request bytes, 8 per write notice, 4 per vector-time entry.
type wireSample struct {
	name     string
	kind     netsim.Kind
	pl       payload
	reliable bool
	size     int
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
	acq := &msgLockAcq{Lock: 1, Requester: 2, VC: vc, Seq: 1}
	return []wireSample{
		{"diff-req", KindDiffReq, &msgDiffReq{From: 1, Page: 3, Wants: ids(3)}, true, 40 + 24 + 8*3},
		{"diff-reply", KindDiffReply, &msgDiffReply{Page: 3, Items: []diffItem{{Diff: diff}, {Diff: nil}}}, true, 40 + (12 + 28) + 12},
		{"pf-req/diff", KindPfReq, &msgDiffReq{From: 1, Page: 3, Wants: ids(1), Prefetch: true}, false, 40 + 24 + 8},
		{"pf-req/page", KindPfReq, &msgPageReq{From: 1, Page: 3, Need: ids(2), Prefetch: true}, false, 40 + 24 + 12*2},
		{"pf-reply/diff", KindPfReply, &msgDiffReply{Page: 3, Items: []diffItem{{Diff: diff}}, Prefetch: true}, false, 40 + 12 + 28},
		{"pf-reply/page", KindPfReply, &msgPageReply{Page: 3, Covers: ids(1), Prefetch: true}, false, 40 + 4096 + 12},
		{"lock-acq", KindLockAcq, acq, true, 40 + 24 + 32},
		{"lock-fwd", KindLockForward, acq, true, 40 + 24 + 32},
		{"lock-retry", KindLockRetry, acq, true, 40 + 24 + 32},
		{"lock-grant/2 intervals", KindLockGrant, &msgLockGrant{Lock: 1, VC: vc, Ivs: []*lrc.Interval{iv(1), iv(3)}}, true, 40 + 32 + 48 + 64},
		{"lock-return/empty", KindLockReturn, &msgLockGrant{Lock: 1, VC: vc}, true, 40 + 32},
		{"bar-arrive/leaf", KindBarArrive, &msgBarArrive{From: 1, VC: vc, Ivs: []*lrc.Interval{iv(2)}, DiffBytes: 1 << 20, Acc: make([]PageAcc, 2)}, true, 40 + 32 + 56 + 24*2},
		{"bar-arrive/interior", KindBarArrive, &msgBarArrive{From: 1, VC: vc, MinVC: vc, GCWant: true, Ivs: []*lrc.Interval{iv(2)}, Acc: make([]PageAcc, 2)}, true, 40 + 8 + 64 + 56 + 24*2},
		{"bar-release/moves", KindBarRelease, &msgBarRelease{VC: vc, Ivs: []*lrc.Interval{iv(1)}, GC: true, Moves: make([]HomeMove, 3)}, true, 40 + 32 + 48 + 16*3},
		{"gc-done", KindGCDone, &msgGCDone{From: 1}, true, 40},
		{"gc-flush", KindGCFlush, &msgGCFlush{}, true, 40},
		{"eager-notice", KindEagerNotice, &msgEagerNotice{Iv: iv(2)}, true, 40 + 8 + 32 + 16},
		{"home-flush", KindHomeFlush, &msgHomeFlush{From: 1, Page: 3, Diff: diff}, true, 40 + 20 + 28},
		{"home-flush/empty", KindHomeFlush, &msgHomeFlush{From: 1, Page: 3}, true, 40 + 20},
		{"page-req", KindPageReq, &msgPageReq{From: 1, Page: 3, Need: ids(2)}, true, 40 + 24 + 12*2},
		{"page-reply", KindPageReply, &msgPageReply{Page: 3, Covers: ids(2)}, true, 40 + 4096 + 12*2},
		{"gossip", KindGossip, &msgGossip{From: 1, Ivs: []*lrc.Interval{iv(1), iv(3)}}, true, 40 + 8 + 48 + 64},
		{"home-xfer", KindHomeXfer, &msgHomeXfer{From: 1, Page: 3, Applied: vc}, true, 40 + 4096 + 32 + 8},
	}
}

// TestWireSizes pins the wire format: the one constructor must give every
// kind's payload the size, addressing and transport class its send site
// used to spell by hand. Only prefetch traffic is droppable, and not even
// that under PfReliable.
func TestWireSizes(t *testing.T) {
	costs := DefaultCosts()
	n := &Node{ID: 1, N: 8, C: &costs}
	sampled := make(map[netsim.Kind]bool)
	for _, s := range wireSamples() {
		n.pfReliable = true
		if !n.msg(5, s.kind, s.pl).Reliable {
			t.Errorf("%s: droppable under PfReliable", s.name)
		}
		n.pfReliable = false
		m := n.msg(5, s.kind, s.pl)
		if m.Size != s.size {
			t.Errorf("%s: %d bytes on the wire, want %d", s.name, m.Size, s.size)
		}
		if m.Src != 1 || m.Dst != 5 || m.Kind != s.kind || m.Reliable != s.reliable || m.Payload != any(s.pl) || m.Seq != 0 || m.Ack != 0 {
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
