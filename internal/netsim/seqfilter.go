package netsim

// SeqFilter is the receiver-side defense hardened protocols use against
// delaying, reordering and duplicating media: per (receiver, sender)
// pair it tracks the highest sequence number accepted so far and rejects
// anything at or below it — stale-message rejection and duplicate
// suppression in one check, the DSDV sequence-number idea applied to a
// whole control-message class.
//
// Each protocol keeps one filter per message class it hardens, because
// sequence numbers from different senders' counters are only comparable
// within one class. Sequence number 0 means "unsequenced" and is always
// accepted, so legacy emitters keep working; stamping protocols start
// their counters at 1.
//
// The state is sender-major: seen[from*n+rcv]. The engine delivers one
// broadcast to the sender's neighbors in ascending id order, so that
// broadcast's Fresh calls walk one contiguous row instead of striding n
// entries per delivery. The layout changes no verdict.
type SeqFilter struct {
	n    int
	seen []uint32 // seen[from*n+rcv] = highest seq rcv accepted from from
}

// NewSeqFilter builds a filter for an n-node network.
func NewSeqFilter(n int) *SeqFilter {
	return &SeqFilter{n: n, seen: make([]uint32, n*n)}
}

// Fresh reports whether a message from→rcv carrying seq should be
// accepted, and records it. Duplicates (seq already accepted) and stale
// messages (a newer seq from the same sender was accepted first) return
// false.
func (f *SeqFilter) Fresh(rcv, from NodeID, seq uint32) bool {
	if seq == 0 {
		return true
	}
	idx := int(from)*f.n + int(rcv)
	if seq <= f.seen[idx] {
		return false
	}
	f.seen[idx] = seq
	return true
}

// DedupWindowBits is the span of the DedupWindow's anti-replay bitmap:
// per (receiver, sender) pair the window remembers the highest sequence
// seen and which of the previous 63 sequences arrived.
const DedupWindowBits = 64

// DedupWindow is the receiver-side defense for control classes whose
// frames carry distinct semantic payloads (a JOIN and the ACK that
// answers it, say): exact-duplicate suppression with an anti-replay
// sliding window, the IPsec sequence-window idea. Unlike SeqFilter's
// latest-wins rule it accepts frames that arrive out of order — under a
// jittering medium a sender's frame k routinely leapfrogs frame k−1,
// and rejecting the older frame would discard a message that was never
// delivered, not a duplicate. Only exact re-deliveries (the same seq
// seen twice) and frames fallen behind the window (≥ DedupWindowBits
// below the highest seen — far staler than any delay the engine can
// introduce at realistic send rates) are rejected.
//
// On an in-order medium (ideal or loss-only) every accepted frame
// advances the window head exactly like SeqFilter, so hardened
// protocols behave byte-for-byte identically there whichever filter
// they use. Sequence number 0 means "unsequenced" and is always
// accepted. Like SeqFilter, the state is sender-major (indexed
// from*n+rcv), so one broadcast's deliveries touch one contiguous row.
type DedupWindow struct {
	n    int
	seen []uint32 // seen[from*n+rcv] = highest seq rcv observed from from
	mask []uint64 // bit d set ⇔ seq (seen − d) arrived
}

// NewDedupWindow builds a window filter for an n-node network.
func NewDedupWindow(n int) *DedupWindow {
	return &DedupWindow{n: n, seen: make([]uint32, n*n), mask: make([]uint64, n*n)}
}

// Fresh reports whether a message from→rcv carrying seq should be
// accepted, and records it. Exact duplicates and frames older than the
// window return false.
func (f *DedupWindow) Fresh(rcv, from NodeID, seq uint32) bool {
	if seq == 0 {
		return true
	}
	idx := int(from)*f.n + int(rcv)
	head := f.seen[idx]
	switch {
	case seq > head:
		if shift := seq - head; shift >= DedupWindowBits {
			f.mask[idx] = 0
		} else {
			f.mask[idx] <<= shift
		}
		f.mask[idx] |= 1
		f.seen[idx] = seq
		return true
	case head-seq >= DedupWindowBits:
		return false
	default:
		bit := uint64(1) << (head - seq)
		if f.mask[idx]&bit != 0 {
			return false
		}
		f.mask[idx] |= bit
		return true
	}
}
