// Package routing implements the routing substrate of the paper's model:
// HELLO-based neighbor discovery with soft-timer break detection, the
// hybrid routing protocol the analysis assumes (proactive distance-vector
// routing inside each cluster, reactive discovery across clusters), and
// flat DSDV-style and AODV-style baselines used to reproduce the paper's
// motivation that flat proactive routing does not scale.
package routing

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/netsim"
)

// HelloMode selects how HELLO beacons are emitted.
type HelloMode int

const (
	// HelloOnLinkGen sends one beacon per endpoint per new link — the
	// paper's lower bound (Eqn 4): f_hello = λ_gen, with link breaks
	// detected for free by soft timers.
	HelloOnLinkGen HelloMode = iota + 1
	// HelloPeriodic sends one beacon per node every Interval — the
	// conventional implementation the lower bound idealizes.
	HelloPeriodic
)

// Hello is the neighbor-discovery protocol. Besides accounting for HELLO
// traffic it maintains per-node neighbor tables from the beacons it
// actually hears, so tests can verify that the lower-bound beacon rate
// still keeps tables synchronized with the true topology.
type Hello struct {
	mode     HelloMode
	bits     float64
	interval float64 // beacon period for HelloPeriodic
	timeout  float64 // soft-timer expiry for heard neighbors

	env      netsim.Env
	lastSent float64
	// heard[b] lists every node a whose table holds b, with the time a
	// last heard b's beacon. The tables are stored sender-major so the
	// deliveries of one beacon update one row.
	heard []heardRow
	// tableSize[a] is node a's table size: the number of rows holding a.
	tableSize []int32
	// seqOut[a] is node a's beacon sequence counter; filter rejects
	// stale and duplicated beacons under delaying/reordering media.
	seqOut []uint32
	filter *netsim.SeqFilter
	// added collects one broadcast's receivers that are new to the
	// sender's row, for OnBroadcast's merge. Sized at Start for the
	// largest possible broadcast, so the delivery path never grows it.
	added []netsim.NodeID
}

var (
	_ netsim.Protocol          = (*Hello)(nil)
	_ netsim.BroadcastReceiver = (*Hello)(nil)
)

// NewHello builds the lower-bound (event-driven) HELLO protocol.
func NewHello(bits float64) (*Hello, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("routing: hello size must be positive, got %g", bits)
	}
	return &Hello{mode: HelloOnLinkGen, bits: bits}, nil
}

// NewPeriodicHello builds the conventional periodic HELLO protocol with
// the given beacon interval; neighbors not heard for 2.5 intervals are
// dropped from the table (the usual allowed-loss-of-two-beacons rule).
func NewPeriodicHello(bits, interval float64) (*Hello, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("routing: hello size must be positive, got %g", bits)
	}
	if interval <= 0 {
		return nil, fmt.Errorf("routing: hello interval must be positive, got %g", interval)
	}
	return &Hello{mode: HelloPeriodic, bits: bits, interval: interval, timeout: 2.5 * interval}, nil
}

// Name implements netsim.Protocol.
func (h *Hello) Name() string { return "hello" }

// Start implements netsim.Protocol: every node beacons once so initial
// neighbor tables are populated. The initial burst is not part of the
// steady-state measurements (experiments snapshot tallies after warmup).
func (h *Hello) Start(env netsim.Env) error {
	h.env = env
	h.heard = make([]heardRow, env.NumNodes())
	for i := range h.heard {
		// Headroom over the initial degree keeps the steady-state tick
		// loop allocation-free while degrees drift.
		capc := env.Degree(netsim.NodeID(i))*3/2 + 8
		h.heard[i] = heardRow{rcv: make([]netsim.NodeID, 0, capc), at: make([]float64, 0, capc)}
	}
	h.tableSize = make([]int32, env.NumNodes())
	h.seqOut = make([]uint32, env.NumNodes())
	h.filter = netsim.NewSeqFilter(env.NumNodes())
	h.added = make([]netsim.NodeID, 0, env.NumNodes())
	for i := 0; i < env.NumNodes(); i++ {
		h.beacon(netsim.NodeID(i), false)
	}
	return nil
}

// OnLinkEvent implements netsim.Protocol: in lower-bound mode both
// endpoints of a fresh link announce themselves; soft timers cover
// breaks without any transmission.
func (h *Hello) OnLinkEvent(ev netsim.LinkEvent) {
	if h.mode != HelloOnLinkGen {
		return
	}
	if ev.Up {
		h.beacon(ev.A, ev.Border)
		h.beacon(ev.B, ev.Border)
	} else {
		// Soft timer: drop silently on both sides.
		h.forget(ev.A, ev.B)
		h.forget(ev.B, ev.A)
	}
}

// OnMessage implements netsim.Protocol: receiving a HELLO refreshes the
// sender's entry in the receiver's table. Two hardening guards protect
// the table under non-ideal media: stale or duplicated beacons (sequence
// number at or below one already accepted) are rejected, and a beacon
// from a node that is no longer a neighbor is ignored — a delayed frame
// must not resurrect an entry the soft timer already dropped. On the
// ideal medium both guards never fire: same-tick delivery implies the
// sender is a current neighbor and beacons arrive in sequence order.
// The neighbor check searches the sender's adjacency row (adjacency is
// symmetric), which the engine's delivery loop is already walking.
func (h *Hello) OnMessage(rcv netsim.NodeID, msg netsim.Message) {
	if msg.Kind != netsim.MsgHello {
		return
	}
	if !h.filter.Fresh(rcv, msg.From, msg.Seq) {
		return
	}
	if !h.env.IsNeighbor(msg.From, rcv) {
		return
	}
	row := &h.heard[msg.From]
	i, ok := netsim.FindID(row.rcv, rcv)
	if ok {
		row.at[i] = h.env.Now()
		return
	}
	row.rcv = slices.Insert(row.rcv, i, rcv)
	row.at = slices.Insert(row.at, i, h.env.Now())
	h.tableSize[rcv]++
}

// OnBroadcast implements netsim.BroadcastReceiver: one beacon's
// same-tick deliveries in a single merge into the sender's row. It is
// OnMessage for each receiver in order, without the per-receiver search
// or neighbor guard: every receiver is a current neighbor of the sender
// by the engine's contract, and the ascending receivers walk the sorted
// row once. A pass refreshes the receivers already present and collects
// the new ones; a back-to-front merge then inserts those in place. A
// repeated (medium-duplicated) receiver is skipped without consulting
// the filter, which could neither change state nor accept it anew.
func (h *Hello) OnBroadcast(msg netsim.Message, rcvs []netsim.NodeID) {
	if msg.Kind != netsim.MsgHello {
		return
	}
	now := h.env.Now()
	row := &h.heard[msg.From]
	added := h.added[:0]
	i, prev := 0, netsim.NodeID(-1)
	for _, r := range rcvs {
		dup := r == prev
		prev = r
		if dup || !h.filter.Fresh(r, msg.From, msg.Seq) {
			continue
		}
		for i < len(row.rcv) && row.rcv[i] < r {
			i++
		}
		if i < len(row.rcv) && row.rcv[i] == r {
			row.at[i] = now
			continue
		}
		added = append(added, r)
	}
	h.added = added
	if len(added) == 0 {
		return
	}
	n, k := len(row.rcv), len(added)
	row.rcv = slices.Grow(row.rcv, k)[:n+k]
	row.at = slices.Grow(row.at, k)[:n+k]
	i = n - 1
	for j, w := k-1, n+k-1; j >= 0; w-- {
		if i >= 0 && row.rcv[i] > added[j] {
			row.rcv[w], row.at[w] = row.rcv[i], row.at[i]
			i--
			continue
		}
		row.rcv[w], row.at[w] = added[j], now
		h.tableSize[added[j]]++
		j--
	}
}

// OnTick implements netsim.Protocol: periodic beaconing and soft-timer
// expiry.
func (h *Hello) OnTick(now float64) {
	if h.mode != HelloPeriodic {
		return
	}
	if now-h.lastSent >= h.interval {
		h.lastSent = now
		for i := 0; i < h.env.NumNodes(); i++ {
			h.beacon(netsim.NodeID(i), false)
		}
	}
	for b := range h.heard {
		row := &h.heard[b]
		k := 0
		for i, t := range row.at {
			if now-t > h.timeout {
				h.tableSize[row.rcv[i]]--
				continue
			}
			row.rcv[k], row.at[k] = row.rcv[i], t
			k++
		}
		row.rcv, row.at = row.rcv[:k], row.at[:k]
	}
}

// NextWake implements netsim.Waker. In lower-bound mode OnTick is pure,
// so the wake is +Inf. In periodic mode the next observable action is
// the earlier of the next beacon (lastSent + interval) and the earliest
// soft-timer expiry; expiry is strict (now > t + timeout), so a wake
// landing exactly on t + timeout is a harmless no-op and the event core
// retries one tick later.
func (h *Hello) NextWake(float64) float64 {
	if h.mode != HelloPeriodic {
		return math.Inf(1)
	}
	next := h.lastSent + h.interval
	for _, row := range h.heard {
		for _, t := range row.at {
			if e := t + h.timeout; e < next {
				next = e
			}
		}
	}
	return next
}

// beacon broadcasts one sequence-stamped HELLO from the given node.
func (h *Hello) beacon(from netsim.NodeID, border bool) {
	h.seqOut[from]++
	h.env.Broadcast(netsim.Message{
		Kind:   netsim.MsgHello,
		From:   from,
		Bits:   h.bits,
		Border: border,
		Seq:    h.seqOut[from],
	})
}

// forget drops sender b from receiver a's table, if present.
func (h *Hello) forget(a, b netsim.NodeID) {
	row := &h.heard[b]
	i, ok := netsim.FindID(row.rcv, a)
	if !ok {
		return
	}
	row.rcv = slices.Delete(row.rcv, i, i+1)
	row.at = slices.Delete(row.at, i, i+1)
	h.tableSize[a]--
}

// Knows reports whether node a currently has node b in its neighbor
// table.
func (h *Hello) Knows(a, b netsim.NodeID) bool {
	_, ok := netsim.FindID(h.heard[b].rcv, a)
	return ok
}

// TableSize returns the current neighbor-table size of a node.
func (h *Hello) TableSize(id netsim.NodeID) int { return int(h.tableSize[id]) }

// heardRow is one sender's column of the HELLO tables: the receivers
// holding the sender, ascending, with the time each last heard it.
type heardRow struct {
	rcv []netsim.NodeID
	at  []float64
}
