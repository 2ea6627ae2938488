package netsim

import (
	"math/rand"
	"testing"

	"godsm/internal/sim"
)

func testConfig() Config {
	return Config{
		NsPerByte:     10,
		SwitchLatency: 100,
		PropDelay:     5,
		DropThreshold: 0,
	}
}

func TestPointToPointLatency(t *testing.T) {
	k := sim.NewKernel()
	var arrived sim.Time = -1
	var got *Message
	n := New(k, 4, testConfig(), func(m *Message) {
		arrived = k.Now()
		got = m
	})
	m := &Message{Src: 0, Dst: 1, Size: 100, Reliable: true, Payload: "hi"}
	predicted := n.Send(m)
	k.Run()
	// ser = 1000; out [0,1000]; switch out at 1105; in [1105,2105]; +5 = 2110.
	if want := sim.Time(2110); arrived != want || predicted != want {
		t.Fatalf("arrived=%d predicted=%d, want %d", arrived, predicted, want)
	}
	if got.Payload != "hi" {
		t.Fatalf("payload = %v", got.Payload)
	}
}

func TestLoopback(t *testing.T) {
	k := sim.NewKernel()
	var arrived sim.Time = -1
	n := New(k, 2, testConfig(), func(m *Message) { arrived = k.Now() })
	n.Send(&Message{Src: 1, Dst: 1, Size: 4096, Reliable: true})
	k.Run()
	if arrived != 100 {
		t.Fatalf("loopback arrived at %d, want switch latency 100", arrived)
	}
}

func TestSenderSerializationQueueing(t *testing.T) {
	k := sim.NewKernel()
	var arrivals []sim.Time
	n := New(k, 4, testConfig(), func(m *Message) { arrivals = append(arrivals, k.Now()) })
	k.At(0, func() {
		n.Send(&Message{Src: 0, Dst: 1, Size: 100, Reliable: true})
		n.Send(&Message{Src: 0, Dst: 2, Size: 100, Reliable: true})
	})
	k.Run()
	if len(arrivals) != 2 {
		t.Fatalf("%d arrivals", len(arrivals))
	}
	// Second message serializes after the first on the shared output link.
	if arrivals[1]-arrivals[0] != 1000 {
		t.Fatalf("arrivals %v: second should trail first by one serialization (1000)", arrivals)
	}
}

func TestHotSpotInboundQueueing(t *testing.T) {
	k := sim.NewKernel()
	var arrivals []sim.Time
	n := New(k, 8, testConfig(), func(m *Message) { arrivals = append(arrivals, k.Now()) })
	k.At(0, func() {
		for src := 1; src < 8; src++ {
			n.Send(&Message{Src: NodeID(src), Dst: 0, Size: 100, Reliable: true})
		}
	})
	k.Run()
	if len(arrivals) != 7 {
		t.Fatalf("%d arrivals, want 7", len(arrivals))
	}
	// All senders transmit in parallel, but node 0's inbound link is shared:
	// deliveries must be spaced one serialization (1000 ns) apart.
	for i := 1; i < len(arrivals); i++ {
		if d := arrivals[i] - arrivals[i-1]; d != 1000 {
			t.Fatalf("arrival gap %d = %d, want 1000 (inbound link contention)", i, d)
		}
	}
}

func TestUnreliableDropUnderCongestion(t *testing.T) {
	cfg := testConfig()
	cfg.DropThreshold = 500
	k := sim.NewKernel()
	delivered := 0
	n := New(k, 4, cfg, func(m *Message) { delivered++ })
	var results []sim.Time
	k.At(0, func() {
		// First message occupies the link for 1000 ns; the unreliable
		// second would wait 1000 > 500 and must be dropped.
		results = append(results, n.Send(&Message{Src: 0, Dst: 1, Size: 100, Reliable: true}))
		results = append(results, n.Send(&Message{Src: 0, Dst: 1, Size: 100, Reliable: false}))
	})
	k.Run()
	if results[1] != -1 {
		t.Fatalf("unreliable message not dropped: %v", results)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	if n.Stats(0).Dropped != 1 {
		t.Fatalf("drop count = %d, want 1", n.Stats(0).Dropped)
	}
}

func TestReliableNeverDropped(t *testing.T) {
	cfg := testConfig()
	cfg.DropThreshold = 1
	k := sim.NewKernel()
	delivered := 0
	n := New(k, 2, cfg, func(m *Message) { delivered++ })
	k.At(0, func() {
		for i := 0; i < 20; i++ {
			n.Send(&Message{Src: 0, Dst: 1, Size: 1000, Reliable: true})
		}
	})
	k.Run()
	if delivered != 20 {
		t.Fatalf("delivered = %d, want 20", delivered)
	}
}

func TestStatsCounters(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, 3, testConfig(), func(m *Message) {})
	k.At(0, func() {
		n.Send(&Message{Src: 0, Dst: 1, Size: 100, Reliable: true, Kind: 2})
		n.Send(&Message{Src: 1, Dst: 0, Size: 200, Reliable: true, Kind: 2})
		n.Send(&Message{Src: 0, Dst: 2, Size: 50, Reliable: true, Kind: 3})
	})
	k.Run()
	if s := n.Stats(0); s.MsgsSent != 2 || s.BytesSent != 150 || s.MsgsRecv != 1 || s.BytesRecv != 200 {
		t.Fatalf("node0 stats = %+v", s)
	}
	tot := n.TotalStats()
	if tot.MsgsSent != 3 || tot.BytesSent != 350 || tot.MsgsRecv != 3 || tot.BytesRecv != 350 {
		t.Fatalf("total stats = %+v", tot)
	}
	if m, b := n.KindStats(2); m != 2 || b != 300 {
		t.Fatalf("kind 2 stats = %d msgs %d bytes", m, b)
	}
	if m, b := n.KindStats(3); m != 1 || b != 50 {
		t.Fatalf("kind 3 stats = %d msgs %d bytes", m, b)
	}
}

func TestDefaultConfigRoundTripScale(t *testing.T) {
	// Sanity: a 4 KB page reply over the default config takes on the order
	// of a few hundred microseconds, matching software-DSM scale.
	k := sim.NewKernel()
	var arrived sim.Time
	n := New(k, 2, DefaultConfig(), func(m *Message) { arrived = k.Now() })
	n.Send(&Message{Src: 0, Dst: 1, Size: 4160, Reliable: true})
	k.Run()
	if arrived < 500*sim.Microsecond || arrived > 2000*sim.Microsecond {
		t.Fatalf("4KB transfer latency = %d µs, outside software-DSM scale", arrived/sim.Microsecond)
	}
}

// sendRigs are the two machines the send path is measured on: the paper's
// single switch at 8 nodes and the 1024-node fat tree.
func sendRigs() []sendRig {
	fat := DefaultConfig()
	fat.Topology = "fattree"
	return []sendRig{{"single", 8, DefaultConfig()}, {"fattree1024", 1024, fat}}
}

type sendRig struct {
	name  string
	nodes int
	cfg   Config
}

// TestSendAllocs: sending and delivering a message the caller built
// allocates nothing once the kernel's queue and the route scratch have
// grown — the delivery is the message itself as an event argument, not a
// closure around it.
func TestSendAllocs(t *testing.T) {
	for _, tc := range sendRigs() {
		k := sim.NewKernel()
		delivered := 0
		n := New(k, tc.nodes, tc.cfg, func(*Message) { delivered++ })
		m := &Message{Src: 0, Dst: NodeID(tc.nodes - 1), Size: 128, Reliable: true, Kind: 1}
		got := testing.AllocsPerRun(100, func() {
			n.Send(m)
			k.Run()
		})
		if got != 0 {
			t.Errorf("%s: send+deliver allocates %.1f times, want 0", tc.name, got)
		}
		if delivered != 101 {
			t.Errorf("%s: %d deliveries over 101 sends", tc.name, delivered)
		}
	}
}

// BenchmarkSendDeliver is one send and its delivery between random pairs,
// on the paper's single switch (8 nodes) and on the 1024-node fat tree: the
// netsim.send_*_ns rig, with allocations reported.
func BenchmarkSendDeliver(b *testing.B) {
	for _, bc := range sendRigs() {
		b.Run(bc.name, func(b *testing.B) {
			k := sim.NewKernel()
			n := New(k, bc.nodes, bc.cfg, func(*Message) {})
			rng := rand.New(rand.NewSource(1))
			msgs := make([]Message, 256)
			for i := range msgs {
				src := rng.Intn(bc.nodes)
				dst := (src + 1 + rng.Intn(bc.nodes-1)) % bc.nodes
				msgs[i] = Message{Src: NodeID(src), Dst: NodeID(dst), Size: 128, Reliable: true, Kind: 1}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Send(&msgs[i%len(msgs)])
				if i%len(msgs) == len(msgs)-1 {
					k.Run() // deliver the batch
				}
			}
			k.Run()
		})
	}
}
