package routing

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/netsim"
)

// modelEnv is a hand-driven netsim.Env: the test owns the adjacency
// matrix and the clock, and collects broadcasts into a frame pool
// instead of delivering them, so deliveries can be delayed, reordered,
// duplicated or sent to nodes that are no longer neighbors.
type modelEnv struct {
	now  float64
	adj  [][]bool
	sent []netsim.Message
}

func (e *modelEnv) Now() float64  { return e.now }
func (e *modelEnv) NumNodes() int { return len(e.adj) }
func (e *modelEnv) Neighbors(id netsim.NodeID) []netsim.NodeID {
	var out []netsim.NodeID
	for j, ok := range e.adj[id] {
		if ok {
			out = append(out, netsim.NodeID(j))
		}
	}
	return out
}
func (e *modelEnv) IsNeighbor(a, b netsim.NodeID) bool { return e.adj[a][b] }
func (e *modelEnv) Degree(id netsim.NodeID) int        { return len(e.Neighbors(id)) }
func (e *modelEnv) Broadcast(msg netsim.Message)       { e.sent = append(e.sent, msg) }

// quietEnv shares a modelEnv's adjacency and clock but discards
// broadcasts, so a twin protocol can run beside the one whose frames
// fill the pool. Both stamp the same sequence numbers, so the pool's
// frames are valid input for either.
type quietEnv struct{ *modelEnv }

func (quietEnv) Broadcast(netsim.Message) {}

// batchReceivers draws one broadcast's same-tick receivers the way the
// engine hands them to OnBroadcast: ascending current neighbors of
// from, and a medium-duplicated frame repeats its receiver. The shape
// is an empty set, the whole row, only receivers whose tables lack from
// (so every accepted one is inserted), or a random subset.
func batchReceivers(rng *rand.Rand, env *modelEnv, h *Hello, from netsim.NodeID) (rcvs []netsim.NodeID, shape int) {
	shape = rng.Intn(4)
	if shape == 0 {
		return nil, shape
	}
	for _, r := range env.Neighbors(from) {
		if shape == 2 && h.Knows(r, from) || shape == 3 && rng.Intn(2) == 0 {
			continue
		}
		rcvs = append(rcvs, r)
		if rng.Intn(4) == 0 {
			rcvs = append(rcvs, r)
		}
	}
	return rcvs, shape
}

// helloModel restates Hello's table semantics with plain maps, indexed
// the obvious way: heard[a][b] is when a last heard b.
type helloModel struct {
	periodic          bool
	interval, timeout float64
	lastSent          float64
	heard             []map[netsim.NodeID]float64
	seen              map[[2]netsim.NodeID]uint32 // {rcv, from} → highest accepted seq

	staleRejects, nonNeighborRejects int
}

func newHelloModel(n int, periodic bool, interval float64) *helloModel {
	m := &helloModel{periodic: periodic, interval: interval, timeout: 2.5 * interval,
		heard: make([]map[netsim.NodeID]float64, n), seen: map[[2]netsim.NodeID]uint32{}}
	for i := range m.heard {
		m.heard[i] = map[netsim.NodeID]float64{}
	}
	return m
}

func (m *helloModel) onLinkEvent(ev netsim.LinkEvent) {
	if !m.periodic && !ev.Up {
		delete(m.heard[ev.A], ev.B)
		delete(m.heard[ev.B], ev.A)
	}
}

func (m *helloModel) onMessage(env *modelEnv, rcv netsim.NodeID, msg netsim.Message) {
	if msg.Kind != netsim.MsgHello {
		return
	}
	if msg.Seq != 0 {
		k := [2]netsim.NodeID{rcv, msg.From}
		if msg.Seq <= m.seen[k] {
			m.staleRejects++
			return
		}
		m.seen[k] = msg.Seq
	}
	if !env.adj[rcv][msg.From] {
		m.nonNeighborRejects++
		return
	}
	m.heard[rcv][msg.From] = env.now
}

func (m *helloModel) onTick(now float64) {
	if !m.periodic {
		return
	}
	if now-m.lastSent >= m.interval {
		m.lastSent = now
	}
	for _, tbl := range m.heard {
		for b, t := range tbl {
			if now-t > m.timeout {
				delete(tbl, b)
			}
		}
	}
}

func (m *helloModel) nextWake() float64 {
	if !m.periodic {
		return math.Inf(1)
	}
	next := m.lastSent + m.interval
	for _, tbl := range m.heard {
		for _, t := range tbl {
			next = math.Min(next, t+m.timeout)
		}
	}
	return next
}

// TestHelloTablesMatchMapModel drives the sender-major HELLO tables and
// the map model through the same random sequences of link ups and
// downs, clock ticks and deliveries drawn from the whole history of
// sent frames — so frames arrive late, out of order, twice, and after
// their link broke — and demands Knows, TableSize and NextWake agree
// after every step, in both beacon modes. Two tables run side by side:
// one takes every delivery through OnMessage, its twin takes half of
// them as whole broadcasts through OnBroadcast (see batchReceivers),
// and both must match the model. Both delivery guards must fire along
// the way, and every receiver-set shape must occur, with repeats.
func TestHelloTablesMatchMapModel(t *testing.T) {
	const (
		n        = 10
		steps    = 4000
		dt       = 0.25 // exact in binary, so expiry boundaries (now−t = timeout) occur
		interval = 0.5
		poolCap  = 48
	)
	for _, periodic := range []bool{false, true} {
		name := "on-link-gen"
		if periodic {
			name = "periodic"
		}
		t.Run(name, func(t *testing.T) {
			var stale, nonNeighbor, repeats int
			var shapes [4]int
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				env := &modelEnv{adj: make([][]bool, n)}
				for i := range env.adj {
					env.adj[i] = make([]bool, n)
				}
				for a := 0; a < n; a++ {
					for b := a + 1; b < n; b++ {
						up := rng.Intn(3) == 0
						env.adj[a][b], env.adj[b][a] = up, up
					}
				}
				newHello := func() *Hello {
					var h *Hello
					var err error
					if periodic {
						h, err = NewPeriodicHello(64, interval)
					} else {
						h, err = NewHello(64)
					}
					if err != nil {
						t.Fatal(err)
					}
					return h
				}
				h, hb := newHello(), newHello()
				model := newHelloModel(n, periodic, interval)
				if err := h.Start(env); err != nil {
					t.Fatal(err)
				}
				if err := hb.Start(quietEnv{env}); err != nil {
					t.Fatal(err)
				}
				tables := []struct {
					name string
					h    *Hello
				}{{"per-receiver", h}, {"batch", hb}}
				var pool []netsim.Message
				for step := 0; step < steps; step++ {
					pool = append(pool, env.sent...)
					env.sent = env.sent[:0]
					if len(pool) > poolCap {
						pool = pool[len(pool)-poolCap:]
					}
					op := rng.Intn(10)
					switch {
					case op < 2: // link flip
						a, b := netsim.NodeID(rng.Intn(n)), netsim.NodeID(rng.Intn(n))
						if a == b {
							continue
						}
						if a > b {
							a, b = b, a
						}
						up := !env.adj[a][b]
						env.adj[a][b], env.adj[b][a] = up, up
						ev := netsim.LinkEvent{A: a, B: b, Up: up, Time: env.now}
						h.OnLinkEvent(ev)
						hb.OnLinkEvent(ev)
						model.onLinkEvent(ev)
					case op < 4: // clock tick
						env.now += dt
						h.OnTick(env.now)
						hb.OnTick(env.now)
						model.onTick(env.now)
					default: // deliver a frame from the history
						if len(pool) == 0 {
							continue
						}
						msg := pool[rng.Intn(len(pool))]
						switch rng.Intn(8) {
						case 0:
							msg.Seq = 0 // unsequenced frames bypass the filter
						case 1:
							msg.Kind = netsim.MsgCluster // foreign class: ignored
						}
						if rng.Intn(2) == 0 {
							// One whole broadcast: the batch table takes it
							// in one call, the others receiver by receiver.
							rcvs, shape := batchReceivers(rng, env, h, msg.From)
							shapes[shape]++
							for k := 1; k < len(rcvs); k++ {
								if rcvs[k] == rcvs[k-1] {
									repeats++
								}
							}
							hb.OnBroadcast(msg, rcvs)
							for _, rcv := range rcvs {
								h.OnMessage(rcv, msg)
								model.onMessage(env, rcv, msg)
							}
							break
						}
						// Mostly a current neighbor; sometimes any node,
						// which is a frame outliving its link.
						rcv := netsim.NodeID(rng.Intn(n))
						if nbs := env.Neighbors(msg.From); len(nbs) > 0 && rng.Intn(4) != 0 {
							rcv = nbs[rng.Intn(len(nbs))]
						}
						if rcv == msg.From {
							continue
						}
						h.OnMessage(rcv, msg)
						hb.OnMessage(rcv, msg)
						model.onMessage(env, rcv, msg)
					}
					for _, tb := range tables {
						for a := 0; a < n; a++ {
							ida := netsim.NodeID(a)
							if got, want := tb.h.TableSize(ida), len(model.heard[a]); got != want {
								t.Fatalf("seed %d step %d: %s TableSize(%d) = %d, model %d", seed, step, tb.name, a, got, want)
							}
							for b := 0; b < n; b++ {
								_, want := model.heard[a][netsim.NodeID(b)]
								if got := tb.h.Knows(ida, netsim.NodeID(b)); got != want {
									t.Fatalf("seed %d step %d: %s Knows(%d, %d) = %v, model %v", seed, step, tb.name, a, b, got, want)
								}
							}
						}
						if got, want := tb.h.NextWake(env.now), model.nextWake(); got != want {
							t.Fatalf("seed %d step %d: %s NextWake = %v, model %v", seed, step, tb.name, got, want)
						}
					}
				}
				stale += model.staleRejects
				nonNeighbor += model.nonNeighborRejects
			}
			if stale == 0 || nonNeighbor == 0 {
				t.Errorf("guards not exercised: %d stale/duplicate rejects, %d non-neighbor rejects", stale, nonNeighbor)
			}
			for shape, c := range shapes {
				if c == 0 {
					t.Errorf("receiver-set shape %d never drawn: %v", shape, shapes)
				}
			}
			if repeats == 0 {
				t.Error("no broadcast repeated a receiver")
			}
		})
	}
}
