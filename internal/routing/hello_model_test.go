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
// after every step, in both beacon modes. Both delivery guards must
// fire along the way.
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
			var stale, nonNeighbor int
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
				model := newHelloModel(n, periodic, interval)
				if err := h.Start(env); err != nil {
					t.Fatal(err)
				}
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
						model.onLinkEvent(ev)
					case op < 4: // clock tick
						env.now += dt
						h.OnTick(env.now)
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
						model.onMessage(env, rcv, msg)
					}
					for a := 0; a < n; a++ {
						ida := netsim.NodeID(a)
						if got, want := h.TableSize(ida), len(model.heard[a]); got != want {
							t.Fatalf("seed %d step %d: TableSize(%d) = %d, model %d", seed, step, a, got, want)
						}
						for b := 0; b < n; b++ {
							_, want := model.heard[a][netsim.NodeID(b)]
							if got := h.Knows(ida, netsim.NodeID(b)); got != want {
								t.Fatalf("seed %d step %d: Knows(%d, %d) = %v, model %v", seed, step, a, b, got, want)
							}
						}
					}
					if got, want := h.NextWake(env.now), model.nextWake(); got != want {
						t.Fatalf("seed %d step %d: NextWake = %v, model %v", seed, step, got, want)
					}
				}
				stale += model.staleRejects
				nonNeighbor += model.nonNeighborRejects
			}
			if stale == 0 || nonNeighbor == 0 {
				t.Errorf("guards not exercised: %d stale/duplicate rejects, %d non-neighbor rejects", stale, nonNeighbor)
			}
		})
	}
}
