package cluster

import (
	"fmt"
	"math"

	"repro/internal/netsim"
)

// Cause classifies why a CLUSTER maintenance message was sent; the
// experiment harness uses the split to compare against the two terms of
// the paper's Eqn (11).
type Cause int

const (
	// CauseMemberBreak: a member lost the link to its head and
	// re-affiliated (or promoted itself) — the Eqn (6) event class.
	CauseMemberBreak Cause = iota + 1
	// CauseHeadResign: two heads became linked and the losing head
	// resigned — the first message of the Eqn (10) event class.
	CauseHeadResign
	// CauseReaffiliate: a former member of a resigned head announced its
	// new affiliation — the remaining m−1 messages of Eqn (10).
	CauseReaffiliate
	// CauseSwitch: a DMAC member switched to a better head that moved
	// into range (not modeled by the paper's lower bound).
	CauseSwitch

	numCauses = int(CauseSwitch)
)

// String implements fmt.Stringer.
func (c Cause) String() string {
	switch c {
	case CauseMemberBreak:
		return "member-break"
	case CauseHeadResign:
		return "head-resign"
	case CauseReaffiliate:
		return "reaffiliate"
	case CauseSwitch:
		return "switch"
	default:
		return fmt.Sprintf("Cause(%d)", int(c))
	}
}

// Stats counts maintenance messages by cause, split into range-crossing
// and border-triggered.
type Stats struct {
	msgs       [numCauses]float64
	borderMsgs [numCauses]float64
}

// Of returns the total message count for a cause.
func (s Stats) Of(c Cause) float64 { return s.msgs[int(c)-1] }

// NonBorderOf returns the count excluding border-triggered messages.
func (s Stats) NonBorderOf(c Cause) float64 {
	return s.msgs[int(c)-1] - s.borderMsgs[int(c)-1]
}

// Total returns all maintenance messages.
func (s Stats) Total() float64 {
	t := 0.0
	for _, m := range s.msgs {
		t += m
	}
	return t
}

// Sub returns the window s − o.
func (s Stats) Sub(o Stats) Stats {
	out := s
	for i := range out.msgs {
		out.msgs[i] -= o.msgs[i]
		out.borderMsgs[i] -= o.borderMsgs[i]
	}
	return out
}

// Maintainer is the reactive cluster maintenance protocol: it forms
// clusters once at Start (a zero-cost oracle, matching the paper's
// exclusion of formation overhead) and afterwards restores P1/P2 on
// every link event, broadcasting one CLUSTER message per §2's rules.
type Maintainer struct {
	policy Policy
	bits   float64

	env   netsim.Env
	a     Assignment
	stats Stats

	// Handshake mode (EnableHandshake): joins become a JOIN/ACK message
	// exchange that only commits on delivery, instead of the default
	// oracle that commits instantly and broadcasts for accounting only.
	handshake  bool
	retryTicks int64
	tick       int64
	pending    []pendingJoin

	// seqOut[a] numbers node a's CLUSTER messages; the filters generalize
	// the in-flight JOIN dedup to every control class the maintainer
	// consumes in handshake mode. CLUSTER frames carry distinct semantic
	// payloads (a JOIN and its ACK), so they get exact-duplicate
	// suppression with an anti-replay window — latest-wins filtering
	// would starve the handshake under jitter, where a head's ACK is
	// routinely leapfrogged by its next broadcast. HELLO beacons are
	// pure liveness, so latest-wins is exactly right there. On ideal and
	// loss-only media deliveries arrive in per-link send order, so
	// neither filter ever fires and those regimes stay byte-identical.
	seqOut        []uint32
	filterCluster *netsim.DedupWindow
	filterHello   *netsim.SeqFilter
}

// pendingJoin tracks a member waiting for a head's ACK in handshake
// mode.
type pendingJoin struct {
	active bool
	// head is the candidate the JOIN targeted.
	head netsim.NodeID
	// cause and border label retransmissions like the original attempt.
	cause  Cause
	border bool
	// retryAt is the tick at which the join is retried if still unacked.
	retryAt int64
	// sentAt is 1 + the tick of the last JOIN transmission (0 = never).
	// The hello-triggered retry consults it so a beacon delivered later in
	// the same drain as the original JOIN does not duplicate an exchange
	// that is still in flight.
	sentAt int64
}

var (
	_ netsim.Protocol          = (*Maintainer)(nil)
	_ netsim.BroadcastReceiver = (*Maintainer)(nil)
)

// NewMaintainer builds a maintenance protocol with the given election
// policy and CLUSTER message size in bits.
func NewMaintainer(policy Policy, clusterBits float64) (*Maintainer, error) {
	if policy == nil {
		return nil, fmt.Errorf("cluster: nil policy")
	}
	if clusterBits <= 0 {
		return nil, fmt.Errorf("cluster: message size must be positive, got %g", clusterBits)
	}
	return &Maintainer{policy: policy, bits: clusterBits}, nil
}

// EnableHandshake switches maintenance joins from the default oracle
// (state committed instantly, messages broadcast for accounting only —
// the paper's ideal-medium lower bound) to a JOIN/ACK exchange that only
// commits when the messages actually arrive: a joining member stays
// unaffiliated (a measurable P2 violation) until the accepting head's
// ACK is delivered, and retries every retryTicks ticks while unacked.
// Under the ideal medium the exchange completes within the tick and the
// message counts are identical to the oracle's; under a lossy medium the
// retries are the overhead inflation the degradation experiment
// measures. Must be called before Start.
func (m *Maintainer) EnableHandshake(retryTicks int) error {
	if m.env != nil {
		return fmt.Errorf("cluster: EnableHandshake after Start")
	}
	if retryTicks < 1 {
		return fmt.Errorf("cluster: retry interval must be ≥ 1 tick, got %d", retryTicks)
	}
	m.handshake = true
	m.retryTicks = int64(retryTicks)
	return nil
}

// Name implements netsim.Protocol.
func (m *Maintainer) Name() string { return "cluster/" + m.policy.Name() }

// Start implements netsim.Protocol: initial cluster formation.
func (m *Maintainer) Start(env netsim.Env) error {
	m.env = env
	a, err := Form(env, m.policy)
	if err != nil {
		return err
	}
	m.a = a
	m.seqOut = make([]uint32, env.NumNodes())
	if m.handshake {
		m.pending = make([]pendingJoin, env.NumNodes())
		m.filterCluster = netsim.NewDedupWindow(env.NumNodes())
		m.filterHello = netsim.NewSeqFilter(env.NumNodes())
	}
	return nil
}

// OnLinkEvent implements netsim.Protocol.
func (m *Maintainer) OnLinkEvent(ev netsim.LinkEvent) {
	if ev.Up {
		m.handleUp(ev)
	} else {
		m.handleDown(ev)
	}
}

// OnMessage implements netsim.Protocol. In the default oracle mode
// maintenance messages carry no behaviour: the maintainer manages all
// nodes' state directly and broadcasts CLUSTER messages for overhead
// accounting only. In handshake mode the JOIN/ACK exchange lives here,
// and Border propagates causally: a rebroadcast triggered by a
// Border-tagged message is itself Border-tagged.
func (m *Maintainer) OnMessage(rcv netsim.NodeID, msg netsim.Message) {
	if !m.handshake {
		return
	}
	switch msg.Kind {
	case netsim.MsgCluster:
		// Exact-duplicate suppression for the whole CLUSTER class: a
		// medium-duplicated frame or a far-stale straggler must not
		// re-trigger an exchange, while an out-of-order-but-new frame
		// (an ACK leapfrogged by the head's next broadcast) still lands.
		if !m.filterCluster.Fresh(rcv, msg.From, msg.Seq) {
			return
		}
		switch p := msg.Payload.(type) {
		case joinRequest:
			// The neighbor check guards against delayed JOINs from nodes
			// that have since moved out of range: an ACK could never reach
			// them, and the membership it implies would violate P2.
			if p.Head == rcv && m.a.Role[rcv] == RoleHead && m.env.IsNeighbor(rcv, p.Node) {
				// Accept and acknowledge; the ACK inherits the JOIN's
				// Border tag (causal propagation).
				m.sendAck(rcv, p.Node, msg.Border, p.Cause)
			}
		case joinAck:
			// A stale ACK from a head that is no longer adjacent must not
			// commit the membership — it would violate P2 on the spot.
			if p.Member == rcv && m.pending[rcv].active && m.pending[rcv].head == msg.From &&
				m.env.IsNeighbor(rcv, msg.From) {
				m.a.Role[rcv] = RoleMember
				m.a.Head[rcv] = msg.From
				m.pending[rcv] = pendingJoin{}
			}
		}
	case netsim.MsgHello:
		if !m.filterHello.Fresh(rcv, msg.From, msg.Seq) {
			return
		}
		// Soft-state shortcut: a pending member that hears any head's
		// beacon retries its join immediately instead of waiting out the
		// retry timer. The triggered JOIN inherits the beacon's Border
		// tag — the propagation path the border-audit test pins. A join
		// already transmitted this tick is still in flight (deliveries
		// complete within the drain), so only beacons from later ticks
		// count as evidence the exchange was lost.
		if m.pending[rcv].active && m.a.Role[msg.From] == RoleHead &&
			m.pending[rcv].sentAt != m.tick+1 {
			m.pending[rcv].border = msg.Border
			m.retryJoin(rcv)
		}
	}
}

// OnBroadcast implements netsim.BroadcastReceiver: nothing in oracle
// mode, OnMessage for each receiver in handshake mode.
func (m *Maintainer) OnBroadcast(msg netsim.Message, rcvs []netsim.NodeID) {
	if !m.handshake {
		return
	}
	for _, rcv := range rcvs {
		m.OnMessage(rcv, msg)
	}
}

// OnTick implements netsim.Protocol: in handshake mode, retry unacked
// joins whose timer expired.
func (m *Maintainer) OnTick(float64) {
	if !m.handshake {
		return
	}
	m.tick++
	for i := range m.pending {
		if m.pending[i].active && m.pending[i].retryAt <= m.tick {
			m.retryJoin(netsim.NodeID(i))
		}
	}
}

// NextWake implements netsim.Waker. Handshake mode advances its retry
// clock (m.tick) unconditionally in OnTick, so the hook must run every
// tick; oracle mode's OnTick is pure.
func (m *Maintainer) NextWake(now float64) float64 {
	if !m.handshake {
		return math.Inf(1)
	}
	return now
}

// handleDown restores P2 when a member loses the link to its head.
func (m *Maintainer) handleDown(ev netsim.LinkEvent) {
	if m.a.Role[ev.A] == RoleMember && m.a.Head[ev.A] == ev.B {
		m.reaffiliate(ev.A, ev.Border, CauseMemberBreak)
	} else if m.a.Role[ev.B] == RoleMember && m.a.Head[ev.B] == ev.A {
		m.reaffiliate(ev.B, ev.Border, CauseMemberBreak)
	}
}

// handleUp restores P1 when two heads become linked, and applies the
// DMAC switch rule when a member meets a better head.
func (m *Maintainer) handleUp(ev netsim.LinkEvent) {
	aHead := m.a.Role[ev.A] == RoleHead
	bHead := m.a.Role[ev.B] == RoleHead
	switch {
	case aHead && bHead:
		loser, winner := ev.A, ev.B
		if m.policy.Better(m.env, ev.A, ev.B) {
			loser, winner = ev.B, ev.A
		}
		m.resign(loser, winner, ev.Border)
	case aHead != bHead && m.policy.SwitchOnBetterHead():
		head, member := ev.A, ev.B
		if bHead {
			head, member = ev.B, ev.A
		}
		if cur := m.a.Head[member]; cur >= 0 && cur != head && m.policy.Better(m.env, head, cur) {
			m.a.Head[member] = head
			m.send(member, ev.Border, CauseSwitch)
			m.send(head, ev.Border, CauseSwitch) // accepting head acknowledges
		}
	}
}

// resign demotes loser to a member of winner and re-affiliates every
// former member of loser, emitting the Eqn (10) message sequence.
func (m *Maintainer) resign(loser, winner netsim.NodeID, border bool) {
	if m.handshake {
		// Demotion is a local decision (P1 repairs instantly); the join
		// to the winner must still be acknowledged.
		m.a.Role[loser] = RoleMember
		m.a.Head[loser] = -1
		m.pending[loser] = pendingJoin{
			active: true, head: winner, cause: CauseHeadResign,
			border: border, retryAt: m.tick + m.retryTicks,
		}
		m.sendJoin(loser, winner, border, CauseHeadResign)
	} else {
		m.a.Role[loser] = RoleMember
		m.a.Head[loser] = winner
		m.send(loser, border, CauseHeadResign)
		m.send(winner, border, CauseHeadResign) // winner acknowledges the join
	}
	for i := range m.a.Head {
		id := netsim.NodeID(i)
		if id != loser && m.a.Head[i] == loser {
			m.reaffiliate(id, border, CauseReaffiliate)
		}
	}
	if m.handshake {
		// Joins in flight toward the demoted head can never be acked;
		// re-target them now so the exchange still completes this tick
		// under an ideal medium.
		for i := range m.pending {
			if id := netsim.NodeID(i); id != loser && m.pending[i].active && m.pending[i].head == loser {
				m.retryJoin(id)
			}
		}
	}
}

// reaffiliate joins the best adjacent head, or promotes the node to a
// head of its own when none is in range. Every join is a two-message
// handshake — the node announces its new affiliation and the accepting
// head acknowledges the membership change (the JOIN/CH message pairing
// of DMAC-style protocols, and the convention under which the paper's
// Eqns (6)–(10) count messages; see DESIGN.md §3). A self-promotion is
// a single head announcement.
func (m *Maintainer) reaffiliate(member netsim.NodeID, border bool, cause Cause) {
	best := m.bestAdjacentHead(member)
	if m.handshake {
		if best < 0 {
			m.selfPromote(member, border, cause)
			return
		}
		m.a.Role[member] = RoleMember
		m.a.Head[member] = -1 // unaffiliated until the head's ACK lands
		m.pending[member] = pendingJoin{
			active: true, head: best, cause: cause,
			border: border, retryAt: m.tick + m.retryTicks,
		}
		m.sendJoin(member, best, border, cause)
		return
	}
	if best >= 0 {
		m.a.Role[member] = RoleMember
		m.a.Head[member] = best
	} else {
		m.a.Role[member] = RoleHead
		m.a.Head[member] = member
	}
	m.send(member, border, cause)
	if best >= 0 {
		m.send(best, border, cause) // accepting head acknowledges
	}
}

// bestAdjacentHead returns the policy-best head among the node's current
// neighbors, or −1 when none is in range.
func (m *Maintainer) bestAdjacentHead(member netsim.NodeID) netsim.NodeID {
	best := netsim.NodeID(-1)
	for _, nb := range m.env.Neighbors(member) {
		if m.a.Role[nb] == RoleHead {
			if best < 0 || m.policy.Better(m.env, nb, best) {
				best = nb
			}
		}
	}
	return best
}

// selfPromote makes the node a head of its own cluster — a local
// decision needing no handshake — and announces it.
func (m *Maintainer) selfPromote(member netsim.NodeID, border bool, cause Cause) {
	m.a.Role[member] = RoleHead
	m.a.Head[member] = member
	m.pending[member] = pendingJoin{}
	m.send(member, border, cause)
}

// retryJoin re-attempts a pending join against the current topology: the
// original candidate may have moved away or crashed, so the best head is
// re-picked; with none in range the member promotes itself.
func (m *Maintainer) retryJoin(member netsim.NodeID) {
	p := &m.pending[member]
	best := m.bestAdjacentHead(member)
	if best < 0 {
		m.selfPromote(member, p.border, p.cause)
		return
	}
	p.head = best
	p.retryAt = m.tick + m.retryTicks
	m.sendJoin(member, best, p.border, p.cause)
}

// send broadcasts one CLUSTER accounting message and updates the cause
// statistics.
func (m *Maintainer) send(from netsim.NodeID, border bool, cause Cause) {
	m.stats.msgs[int(cause)-1]++
	if border {
		m.stats.borderMsgs[int(cause)-1]++
	}
	m.seqOut[from]++
	m.env.Broadcast(netsim.Message{
		Kind:   netsim.MsgCluster,
		From:   from,
		Bits:   m.bits,
		Border: border,
		Seq:    m.seqOut[from],
	})
}

// sendJoin broadcasts a JOIN request in handshake mode and counts it —
// retransmissions of the same join count again, which is exactly the
// loss-induced overhead the degradation experiment measures.
func (m *Maintainer) sendJoin(member, head netsim.NodeID, border bool, cause Cause) {
	m.pending[member].sentAt = m.tick + 1
	m.stats.msgs[int(cause)-1]++
	if border {
		m.stats.borderMsgs[int(cause)-1]++
	}
	m.seqOut[member]++
	m.env.Broadcast(netsim.Message{
		Kind:    netsim.MsgCluster,
		From:    member,
		Bits:    m.bits,
		Border:  border,
		Seq:     m.seqOut[member],
		Payload: joinRequest{Node: member, Head: head, Cause: cause},
	})
}

// sendAck broadcasts a head's ACK of a member's JOIN in handshake mode.
func (m *Maintainer) sendAck(head, member netsim.NodeID, border bool, cause Cause) {
	m.stats.msgs[int(cause)-1]++
	if border {
		m.stats.borderMsgs[int(cause)-1]++
	}
	m.seqOut[head]++
	m.env.Broadcast(netsim.Message{
		Kind:    netsim.MsgCluster,
		From:    head,
		Bits:    m.bits,
		Border:  border,
		Seq:     m.seqOut[head],
		Payload: joinAck{Member: member, Head: head},
	})
}

// joinRequest is a handshake-mode JOIN: Node asks Head to accept it.
// Cause rides along so the head's ACK is attributed to the same event
// class.
type joinRequest struct {
	Node, Head netsim.NodeID
	Cause      Cause
}

// joinAck is a handshake-mode acceptance: Head confirms Member joined.
type joinAck struct {
	Member, Head netsim.NodeID
}

// Assignment returns a copy of the current clustering.
func (m *Maintainer) Assignment() Assignment {
	out := NewAssignment(len(m.a.Role))
	copy(out.Role, m.a.Role)
	copy(out.Head, m.a.Head)
	return out
}

// HeadOf returns the current head of a node (itself when it is a head).
func (m *Maintainer) HeadOf(id netsim.NodeID) netsim.NodeID { return m.a.Head[id] }

// RoleOf returns the current role of a node.
func (m *Maintainer) RoleOf(id netsim.NodeID) Role { return m.a.Role[id] }

// NumHeads returns the current number of cluster-heads.
func (m *Maintainer) NumHeads() int { return m.a.NumHeads() }

// HeadRatio returns the current empirical cluster-head ratio P.
func (m *Maintainer) HeadRatio() float64 { return m.a.HeadRatio() }

// Stats returns a snapshot of the per-cause message statistics.
func (m *Maintainer) Stats() Stats { return m.stats }

// CheckInvariants verifies P1/P2 against the current topology.
func (m *Maintainer) CheckInvariants() error { return m.a.Check(m.env) }

// CheckInvariantsLive verifies P1/P2 over currently-alive nodes only;
// see Assignment.CheckLive.
func (m *Maintainer) CheckInvariantsLive(alive func(netsim.NodeID) bool) error {
	return m.a.CheckLive(m.env, alive)
}

// Violations marks every alive node currently violating the clustering
// invariants in the caller-provided scratch slice and returns the count;
// see Assignment.Violations. Unlike Assignment() it does not copy, so
// per-tick auditors can call it allocation-free.
func (m *Maintainer) Violations(alive func(netsim.NodeID) bool, bad []bool) int {
	return m.a.Violations(m.env, alive, bad)
}

// Pending returns the number of nodes whose handshake join is still
// awaiting an ACK (always 0 in oracle mode).
func (m *Maintainer) Pending() int {
	count := 0
	for _, p := range m.pending {
		if p.active {
			count++
		}
	}
	return count
}
