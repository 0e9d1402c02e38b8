// Package trace records simulation activity as structured JSON-lines
// events for debugging, replay and post-hoc analysis. A Tracer is a
// passive netsim.Protocol: register it alongside the protocols under
// study and every link event, broadcast and periodic topology summary is
// appended to the writer in timestamped order. Records are one JSON
// object per line, so standard tooling (jq, grep) applies.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/netsim"
)

// Kind tags a trace record.
type Kind string

const (
	// KindLink records a topology change.
	KindLink Kind = "link"
	// KindMessage records one broadcast (not its per-neighbor
	// deliveries).
	KindMessage Kind = "message"
	// KindSummary records the periodic topology summary.
	KindSummary Kind = "summary"
)

// Record is one trace line.
type Record struct {
	Time float64 `json:"t"`
	Kind Kind    `json:"kind"`

	// Link fields (kind == "link").
	A      *netsim.NodeID `json:"a,omitempty"`
	B      *netsim.NodeID `json:"b,omitempty"`
	Up     *bool          `json:"up,omitempty"`
	Border *bool          `json:"border,omitempty"`

	// Message fields (kind == "message").
	From    *netsim.NodeID `json:"from,omitempty"`
	MsgKind string         `json:"msg,omitempty"`
	Bits    float64        `json:"bits,omitempty"`

	// Summary fields (kind == "summary"). Delivered and Dropped are the
	// engine's cumulative per-neighbor delivery counters; Dropped stays 0
	// under the ideal medium and counts fault-injected losses otherwise.
	MeanDegree float64 `json:"meanDegree,omitempty"`
	Delivered  int64   `json:"delivered,omitempty"`
	Dropped    int64   `json:"dropped,omitempty"`
}

// Tracer streams simulation records to a writer. It logs one record
// per drained broadcast through netsim.BroadcastReceiver, whatever the
// medium did to its deliveries, so it needs an engine that makes the
// OnBroadcast call (netsim.Sim and the event core built on it).
type Tracer struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	err error

	env          netsim.Env
	summaryEvery float64
	lastSummary  float64

	links    int64
	messages int64
}

var (
	_ netsim.Protocol          = (*Tracer)(nil)
	_ netsim.BroadcastReceiver = (*Tracer)(nil)
)

// New builds a tracer writing to w. summaryEvery sets the period of
// topology summary records; 0 disables them.
func New(w io.Writer, summaryEvery float64) (*Tracer, error) {
	if w == nil {
		return nil, fmt.Errorf("trace: nil writer")
	}
	if summaryEvery < 0 {
		return nil, fmt.Errorf("trace: summary period must be non-negative, got %g", summaryEvery)
	}
	bw := bufio.NewWriter(w)
	return &Tracer{w: bw, enc: json.NewEncoder(bw), summaryEvery: summaryEvery}, nil
}

// Name implements netsim.Protocol.
func (t *Tracer) Name() string { return "trace" }

// Start implements netsim.Protocol.
func (t *Tracer) Start(env netsim.Env) error {
	t.env = env
	return nil
}

// OnLinkEvent implements netsim.Protocol.
func (t *Tracer) OnLinkEvent(ev netsim.LinkEvent) {
	a, b := ev.A, ev.B
	up, border := ev.Up, ev.Border
	t.write(Record{
		Time: ev.Time, Kind: KindLink,
		A: &a, B: &b, Up: &up, Border: &border,
	})
	t.links++
}

// OnMessage implements netsim.Protocol. It logs nothing: same-tick
// deliveries are logged per broadcast by OnBroadcast, and a released
// delayed delivery belongs to a broadcast already logged.
func (t *Tracer) OnMessage(netsim.NodeID, netsim.Message) {}

// OnBroadcast implements netsim.BroadcastReceiver: log the broadcast
// once, even when the medium dropped or delayed every delivery or the
// sender has no neighbors.
func (t *Tracer) OnBroadcast(msg netsim.Message, _ []netsim.NodeID) {
	from := msg.From
	t.write(Record{
		Time: t.env.Now(), Kind: KindMessage,
		From: &from, MsgKind: msg.Kind.String(), Bits: msg.Bits,
	})
	t.messages++
}

// OnTick implements netsim.Protocol.
func (t *Tracer) OnTick(now float64) {
	if t.summaryEvery == 0 {
		return
	}
	if now-t.lastSummary < t.summaryEvery {
		return
	}
	t.lastSummary = now
	mean := 0.0
	n := t.env.NumNodes()
	for i := 0; i < n; i++ {
		mean += float64(t.env.Degree(netsim.NodeID(i)))
	}
	rec := Record{
		Time: now, Kind: KindSummary,
		MeanDegree: mean / float64(n),
	}
	// The concrete env (netsim.Sim) exposes cumulative delivery counters;
	// the Env interface itself stays minimal.
	if c, ok := t.env.(interface {
		Delivered() int64
		Dropped() int64
	}); ok {
		rec.Delivered = c.Delivered()
		rec.Dropped = c.Dropped()
	}
	t.write(rec)
}

// write encodes one record, retaining the first error.
func (t *Tracer) write(rec Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(rec)
}

// Flush drains buffered records to the underlying writer and returns the
// first error encountered during tracing.
func (t *Tracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Close flushes the tracer; it makes a Tracer usable wherever an
// io.Closer is expected (the underlying writer is not closed — the
// caller owns it).
func (t *Tracer) Close() error { return t.Flush() }

// Counts reports how many link and message records were written.
func (t *Tracer) Counts() (links, messages int64) {
	return t.links, t.messages
}

// Read parses a JSONL trace back into records — the replay half of the
// package, used by analysis tooling and tests.
func Read(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(r)
	var out []Record
	for dec.More() {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// ReadPartial parses a JSONL trace tolerating a torn tail: records up
// to the first undecodable line are returned together with the count of
// bytes discarded after them. A trace cut short by a crash or SIGKILL
// mid-write is therefore still analyzable; a fully healthy trace
// returns dropped == 0. Unlike Read, a decode failure is not an error.
func ReadPartial(data []byte) (records []Record, dropped int) {
	rest := data
	for len(rest) > 0 {
		nl := -1
		for i, c := range rest {
			if c == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			// No trailing newline: the final record was torn mid-write.
			return records, len(rest)
		}
		var rec Record
		if err := json.Unmarshal(rest[:nl], &rec); err != nil {
			return records, len(rest)
		}
		records = append(records, rec)
		rest = rest[nl+1:]
	}
	return records, 0
}

// Summary aggregates a parsed trace: counts per record kind and message
// kind, and total bits by message kind.
type Summary struct {
	Links    int
	Messages int
	ByMsg    map[string]int
	BitsBy   map[string]float64
}

// Summarize folds records into a Summary.
func Summarize(records []Record) Summary {
	s := Summary{ByMsg: map[string]int{}, BitsBy: map[string]float64{}}
	for _, rec := range records {
		switch rec.Kind {
		case KindLink:
			s.Links++
		case KindMessage:
			s.Messages++
			s.ByMsg[rec.MsgKind]++
			s.BitsBy[rec.MsgKind] += rec.Bits
		}
	}
	return s
}
