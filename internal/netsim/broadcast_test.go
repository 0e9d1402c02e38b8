package netsim_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/mobility"
	"repro/internal/netsim"
)

// point is one delivery as a protocol observed it.
type point struct {
	rcv, from netsim.NodeID
	seq       uint32
}

// fateLog is a Medium that records every fate it hands out since the
// last drained broadcast.
type fateLog struct {
	netsim.Medium
	draws []draw
	// parked counts the frame copies given a positive delay.
	parked int
}

type draw struct {
	from, to netsim.NodeID
	fate     netsim.Fate
}

func (m *fateLog) Deliver(seq int64, from, to netsim.NodeID) netsim.Fate {
	f := m.Medium.Deliver(seq, from, to)
	m.draws = append(m.draws, draw{from, to, f})
	if !f.Drop && f.Delay > 0 {
		m.parked++
	}
	if !f.Drop && f.Dup && f.DupDelay > 0 {
		m.parked++
	}
	return f
}

// talker makes every node broadcast one sequence-stamped HELLO per tick
// until quiet is set.
type talker struct {
	env   netsim.Env
	seq   uint32
	quiet bool
}

func (p *talker) Name() string                            { return "talker" }
func (p *talker) Start(env netsim.Env) error              { p.env = env; return nil }
func (p *talker) OnLinkEvent(netsim.LinkEvent)            {}
func (p *talker) OnMessage(netsim.NodeID, netsim.Message) {}
func (p *talker) OnTick(float64) {
	if p.quiet {
		return
	}
	for i := 0; i < p.env.NumNodes(); i++ {
		p.seq++
		p.env.Broadcast(netsim.Message{Kind: netsim.MsgHello, From: netsim.NodeID(i), Bits: 64, Seq: p.seq})
	}
}

// perReceiver logs every delivery it gets through OnMessage.
type perReceiver struct{ log []point }

func (p *perReceiver) Name() string                 { return "per-receiver" }
func (p *perReceiver) Start(netsim.Env) error       { return nil }
func (p *perReceiver) OnLinkEvent(netsim.LinkEvent) {}
func (p *perReceiver) OnTick(float64)               {}
func (p *perReceiver) OnMessage(rcv netsim.NodeID, msg netsim.Message) {
	p.log = append(p.log, point{rcv, msg.From, msg.Seq})
}

// batch logs deliveries from both hooks and checks each OnBroadcast's
// receivers against the sender's row (ideal medium) or the zero-delay
// fates the medium drew for this broadcast, duplicates included.
type batch struct {
	env    netsim.Env
	medium *fateLog // nil on the ideal medium
	log    []point

	broadcasts, empty, released int
	mismatch                    error // first receiver-set mismatch
}

func (b *batch) Name() string                 { return "batch" }
func (b *batch) Start(env netsim.Env) error   { b.env = env; return nil }
func (b *batch) OnLinkEvent(netsim.LinkEvent) {}
func (b *batch) OnTick(float64)               {}
func (b *batch) OnMessage(rcv netsim.NodeID, msg netsim.Message) {
	b.released++
	b.log = append(b.log, point{rcv, msg.From, msg.Seq})
}

func (b *batch) OnBroadcast(msg netsim.Message, rcvs []netsim.NodeID) {
	b.broadcasts++
	if len(rcvs) == 0 {
		b.empty++
	}
	want := b.env.Neighbors(msg.From)
	if b.medium != nil {
		var drawn []netsim.NodeID
		want = nil
		for _, d := range b.medium.draws {
			if d.from != msg.From {
				b.fail(fmt.Errorf("fate drawn for sender %d inside broadcast from %d", d.from, msg.From))
			}
			drawn = append(drawn, d.to)
			if d.fate.Drop {
				continue
			}
			if d.fate.Delay <= 0 {
				want = append(want, d.to)
			}
			if d.fate.Dup && d.fate.DupDelay <= 0 {
				want = append(want, d.to)
			}
		}
		if !slices.Equal(drawn, b.env.Neighbors(msg.From)) {
			b.fail(fmt.Errorf("broadcast from %d drew fates for %v, row is %v", msg.From, drawn, b.env.Neighbors(msg.From)))
		}
		b.medium.draws = b.medium.draws[:0]
	}
	if !slices.Equal(rcvs, want) {
		b.fail(fmt.Errorf("broadcast from %d seq %d: rcvs %v, want %v", msg.From, msg.Seq, rcvs, want))
	}
	for _, r := range rcvs {
		b.log = append(b.log, point{r, msg.From, msg.Seq})
	}
}

func (b *batch) fail(err error) {
	if b.mismatch == nil {
		b.mismatch = err
	}
}

// hidden exposes only the Protocol methods of the protocol it wraps, so
// the engine delivers to it receiver by receiver.
type hidden struct{ netsim.Protocol }

// contractRun is one run of the mixed stack.
type contractRun struct {
	sim   *netsim.Sim
	b     *batch
	p     *perReceiver
	fates *fateLog
}

func runContract(t *testing.T, medium *faults.Config, hideBatch bool) contractRun {
	t.Helper()
	cfg := netsim.Config{N: 40, Side: 8, Range: 1.3, Dt: 0.1, Seed: 11,
		Model: mobility.EpochRWP{Speed: 0.5, Epoch: 2}}
	r := contractRun{p: &perReceiver{}}
	r.b = &batch{}
	if medium != nil {
		inj, err := faults.New(*medium)
		if err != nil {
			t.Fatal(err)
		}
		r.fates = &fateLog{Medium: inj}
		r.b.medium = r.fates
		cfg.Medium = r.fates
	}
	sim, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.sim = sim
	var bp netsim.Protocol = r.b
	if hideBatch {
		bp = hidden{r.b}
	}
	talk := &talker{}
	if err := sim.Register(bp, r.p, talk); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Let every parked delivery come due before the books are checked.
	talk.quiet = true
	for i := 0; i < 4; i++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestBroadcastReceiverContract pins the engine side of
// netsim.BroadcastReceiver on a stack that mixes a batch protocol with
// a per-receiver one, on the ideal medium and under loss + delay +
// duplication: one OnBroadcast per drained broadcast, empty receiver
// sets included; receivers equal to the sender's row, or to the
// zero-delay fates in row order; parked deliveries only through
// OnMessage; and delivery streams, Tallies and Delivered identical to a
// run where every protocol takes per-receiver calls.
func TestBroadcastReceiverContract(t *testing.T) {
	for _, tc := range []struct {
		name   string
		medium *faults.Config
	}{
		{"ideal", nil},
		{"delay+dup", &faults.Config{Loss: 0.1, Delay: faults.Delay{JitterTicks: 2}, DupProb: 0.3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := runContract(t, tc.medium, false)
			if r.b.mismatch != nil {
				t.Fatal(r.b.mismatch)
			}
			tl := r.sim.Tallies()
			if sent := tl.Of(netsim.MsgHello).Msgs; float64(r.b.broadcasts) != sent {
				t.Errorf("%d OnBroadcast calls for %v drained broadcasts", r.b.broadcasts, sent)
			}
			if r.b.empty == 0 {
				t.Error("no broadcast had an empty receiver set")
			}
			parked := 0
			if r.fates != nil {
				parked = r.fates.parked
				if parked == 0 || tl.Duplicated == 0 || tl.Dropped == 0 {
					t.Fatalf("medium too gentle: %d parked, %v duplicated, %v dropped", parked, tl.Duplicated, tl.Dropped)
				}
				if tl.Overflow != 0 {
					t.Fatalf("%v parked deliveries evicted", tl.Overflow)
				}
			}
			if r.b.released != parked {
				t.Errorf("batch protocol got %d OnMessage calls, %d deliveries were parked", r.b.released, parked)
			}
			if !slices.Equal(r.b.log, r.p.log) {
				t.Errorf("batch and per-receiver protocols saw different streams (%d vs %d deliveries)", len(r.b.log), len(r.p.log))
			}

			ref := runContract(t, tc.medium, true)
			if ref.b.broadcasts != 0 || ref.b.released != len(ref.b.log) {
				t.Fatalf("hidden batch protocol got %d OnBroadcast calls", ref.b.broadcasts)
			}
			if !slices.Equal(r.p.log, ref.p.log) {
				t.Errorf("per-receiver stream differs from the all-per-receiver run (%d vs %d deliveries)", len(r.p.log), len(ref.p.log))
			}
			if !slices.Equal(r.b.log, ref.b.log) {
				t.Errorf("batch stream differs from its per-receiver run (%d vs %d deliveries)", len(r.b.log), len(ref.b.log))
			}
			if tl != ref.sim.Tallies() {
				t.Errorf("tallies %+v, all-per-receiver run %+v", tl, ref.sim.Tallies())
			}
			if n := len(r.p.log); r.sim.Delivered() != ref.sim.Delivered() || r.sim.Delivered() != int64(n) || tl.Delivered != float64(n) {
				t.Errorf("Delivered = %d (tally %v), all-per-receiver run %d, per-receiver log %d",
					r.sim.Delivered(), tl.Delivered, ref.sim.Delivered(), n)
			}
		})
	}
}
