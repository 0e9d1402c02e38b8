package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/routing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 1); err == nil {
		t.Error("nil writer accepted")
	}
	if _, err := New(&bytes.Buffer{}, -1); err == nil {
		t.Error("negative summary period accepted")
	}
	tr, err := New(&bytes.Buffer{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name() != "trace" {
		t.Error("name wrong")
	}
}

// runTraced drives a small mobile stack with a tracer attached and
// returns the raw trace and the engine tallies.
func runTraced(t *testing.T) (*bytes.Buffer, *Tracer, netsim.Tallies) {
	t.Helper()
	var buf bytes.Buffer
	tr, err := New(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.New(netsim.Config{
		N: 80, Side: 10, Range: 1.8, Dt: 0.05, Seed: 5,
		Model: mobility.EpochRWP{Speed: 0.4, Epoch: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	maint, err := cluster.NewMaintainer(cluster.LID{}, 128)
	if err != nil {
		t.Fatal(err)
	}
	hello, err := routing.NewHello(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Register(tr, hello, maint); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf, tr, sim.Tallies()
}

func TestTraceRoundTripAndCounts(t *testing.T) {
	buf, tr, tallies := runTraced(t)
	records, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("empty trace")
	}
	s := Summarize(records)

	// Link records must match engine link-event counts exactly.
	wantLinks := int(tallies.LinkGen + tallies.LinkBrk + tallies.BorderGen + tallies.BorderBrk)
	if s.Links != wantLinks {
		t.Errorf("trace has %d link records, engine saw %d events", s.Links, wantLinks)
	}
	links, msgs := tr.Counts()
	if int(links) != wantLinks {
		t.Errorf("Counts links = %d, want %d", links, wantLinks)
	}

	// One message record per broadcast the engine accepted, senders
	// without neighbors included.
	totalBroadcasts := tallies.Of(netsim.MsgHello).Msgs + tallies.Of(netsim.MsgCluster).Msgs
	if float64(s.Messages) != totalBroadcasts {
		t.Errorf("trace has %d message records, engine sent %v broadcasts", s.Messages, totalBroadcasts)
	}
	if msgs != int64(s.Messages) {
		t.Errorf("Counts messages = %d, summary %d", msgs, s.Messages)
	}
	if s.ByMsg["hello"] == 0 || s.ByMsg["cluster"] == 0 {
		t.Errorf("missing message kinds: %+v", s.ByMsg)
	}
	if s.BitsBy["hello"] != float64(s.ByMsg["hello"])*64 {
		t.Errorf("hello bits %v != count×64", s.BitsBy["hello"])
	}

	// Timestamps are non-decreasing.
	prev := -1.0
	summaries := 0
	for _, rec := range records {
		if rec.Time < prev {
			t.Fatalf("time went backwards: %v after %v", rec.Time, prev)
		}
		prev = rec.Time
		if rec.Kind == KindSummary {
			summaries++
			if rec.MeanDegree <= 0 {
				t.Error("summary without degree")
			}
		}
	}
	if summaries < 9 || summaries > 11 {
		t.Errorf("want ~10 summaries over 10 time units, got %d", summaries)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"t":1}{bad`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestTraceJSONShape(t *testing.T) {
	buf, _, _ := runTraced(t)
	line, _, _ := strings.Cut(buf.String(), "\n")
	if !strings.HasPrefix(line, `{"t":`) {
		t.Errorf("first line not a JSON record: %q", line)
	}
}

func TestReadPartialSalvagesTornTrace(t *testing.T) {
	full := `{"t":1,"kind":"link"}` + "\n" + `{"t":2,"kind":"message","msg":"hello"}` + "\n"

	records, dropped := ReadPartial([]byte(full))
	if len(records) != 2 || dropped != 0 {
		t.Fatalf("clean trace: %d records, %d dropped; want 2, 0", len(records), dropped)
	}

	// A crash mid-write tears the last record.
	torn := full[:len(full)-8]
	records, dropped = ReadPartial([]byte(torn))
	if len(records) != 1 {
		t.Fatalf("torn trace salvaged %d records, want 1", len(records))
	}
	if dropped == 0 {
		t.Error("torn trace reported 0 dropped bytes")
	}
	if records[0].Time != 1 || records[0].Kind != KindLink {
		t.Errorf("salvaged record corrupted: %+v", records[0])
	}

	// Garbage mid-file stops the salvage there.
	records, dropped = ReadPartial([]byte(`{"t":1,"kind":"link"}` + "\nnot json\n" + `{"t":3,"kind":"link"}` + "\n"))
	if len(records) != 1 || dropped == 0 {
		t.Fatalf("mid-file garbage: %d records, %d dropped; want 1 record, >0 dropped", len(records), dropped)
	}

	if records, dropped = ReadPartial(nil); len(records) != 0 || dropped != 0 {
		t.Errorf("empty trace: %d records, %d dropped", len(records), dropped)
	}
}

// placed puts node i at placed[i] and never moves it.
type placed []geom.Vec2

func (placed) Name() string { return "placed" }
func (p placed) Init(n int, _ geom.Metric, _ *rand.Rand) (*mobility.Population, error) {
	pop := mobility.NewPopulation(n)
	copy(pop.Pos, p)
	return pop, nil
}
func (placed) Step(*mobility.Population, geom.Metric, float64, *rand.Rand) {}

// twinSender makes node 0 send two identical frames every tick and the
// isolated node 3 send one.
type twinSender struct{ env netsim.Env }

func (c *twinSender) Name() string                            { return "twin-sender" }
func (c *twinSender) Start(env netsim.Env) error              { c.env = env; return nil }
func (c *twinSender) OnLinkEvent(netsim.LinkEvent)            {}
func (c *twinSender) OnMessage(netsim.NodeID, netsim.Message) {}
func (c *twinSender) OnTick(float64) {
	for _, from := range []netsim.NodeID{0, 0, 3} {
		c.env.Broadcast(netsim.Message{Kind: netsim.MsgHello, From: from, Bits: 64})
	}
}

// TestTraceLogsEveryBroadcastUnderLoss pins one record per broadcast
// where delivery counting cannot find broadcast boundaries: a lossy
// medium delivers fewer frames than the sender has neighbors, so two
// identical back-to-back broadcasts run together, and a sender without
// neighbors delivers nothing at all.
func TestTraceLogsEveryBroadcastUnderLoss(t *testing.T) {
	var buf bytes.Buffer
	tr, err := New(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(faults.Config{Loss: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.New(netsim.Config{
		N: 4, Side: 10, Range: 2, Dt: 0.1, Seed: 3, Medium: inj,
		Model: placed{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 1, Y: 2}, {X: 8, Y: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Register(&twinSender{}, tr); err != nil {
		t.Fatal(err)
	}
	const ticks = 100
	for i := 0; i < ticks; i++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if sim.Degree(0) != 2 || sim.Degree(3) != 0 {
		t.Fatalf("placement: degree(0) = %d, degree(3) = %d; want 2 and 0", sim.Degree(0), sim.Degree(3))
	}
	if sim.Dropped() == 0 {
		t.Fatal("the medium dropped nothing; the test needs losses")
	}
	records, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	perSender := map[netsim.NodeID]int{}
	for _, rec := range records {
		if rec.Kind == KindMessage {
			perSender[*rec.From]++
		}
	}
	if perSender[0] != 2*ticks || perSender[3] != ticks || len(perSender) != 2 {
		t.Errorf("message records per sender = %v, want 0:%d 3:%d", perSender, 2*ticks, ticks)
	}
	if _, msgs := tr.Counts(); float64(msgs) != sim.Tallies().Of(netsim.MsgHello).Msgs {
		t.Errorf("Counts messages = %d, engine sent %v", msgs, sim.Tallies().Of(netsim.MsgHello).Msgs)
	}
}
