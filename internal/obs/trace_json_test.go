package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// legacyEvent is the struct form the Chrome trace used to be encoded from
// with encoding/json. oracleWrite keeps that writer as the reference the
// hand-written one must match byte for byte.
type legacyEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TsUS  float64        `json:"ts"`
	DurUS float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func oracleWrite(w io.Writer, events []Event) error {
	out := make([]legacyEvent, len(events))
	for i, e := range events {
		le := legacyEvent{Name: e.Name, Cat: e.Cat, Phase: e.Phase, TsUS: e.TsUS, DurUS: e.DurUS,
			PID: e.PID, TID: e.TID, Scope: e.Scope}
		if len(e.Args) > 0 {
			le.Args = map[string]any{}
			for _, a := range e.Args {
				le.Args[a.Key] = a.Value()
			}
		}
		out[i] = le
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []legacyEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{out, "ms"})
}

// checkAgainstOracle writes events with both writers and requires identical
// bytes, then checks the write → read → write round trip: it reproduces the
// document byte for byte, except that invalid UTF-8 (written as \ufffd)
// reads back as U+FFFD itself; the document the read-back events write must
// then be a fixed point.
func checkAgainstOracle(t *testing.T, events []Event) []byte {
	t.Helper()
	var got, want bytes.Buffer
	if err := oracleWrite(&want, events); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if err := WriteChromeTrace(&got, events); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("writer differs from encoding/json:\ngot  %s\nwant %s", got.Bytes(), want.Bytes())
	}
	first := roundTrip(t, got.Bytes())
	if validUTF8(events) && !bytes.Equal(first, got.Bytes()) {
		t.Fatalf("write → read → write changed the bytes:\nfirst  %s\nsecond %s", got.Bytes(), first)
	}
	if second := roundTrip(t, first); !bytes.Equal(second, first) {
		t.Fatalf("write → read → write is not a fixed point:\nfirst  %s\nsecond %s", first, second)
	}
	return got.Bytes()
}

func roundTrip(t *testing.T, doc []byte) []byte {
	t.Helper()
	back, err := ReadChromeTrace(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	var again bytes.Buffer
	if err := WriteChromeTrace(&again, back); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	return again.Bytes()
}

func validUTF8(events []Event) bool {
	for _, e := range events {
		for _, s := range []string{e.Name, e.Cat, e.Phase, e.Scope} {
			if !utf8.ValidString(s) {
				return false
			}
		}
		for _, a := range e.Args {
			if v, _ := a.Value().(string); !utf8.ValidString(a.Key) || !utf8.ValidString(v) {
				return false
			}
		}
	}
	return true
}

var edgeStrings = []string{
	"",
	"plain",
	"921 MHz",
	`<script>&amp;</script>`,
	`quote " and backslash \ and slash /`,
	"tab\tnewline\ncr\rbackspace\bformfeed\f",
	"nul\x00 soh\x01 us\x1f del\x7f",
	"line sep \u2028 para sep \u2029",
	"invalid \xff utf8 \xc3 and truncated \xe2\x80",
	"multibyte é 日本 \U0001F600",
	"\xed\xa0\x80 surrogate half",
}

func TestChromeWriterStrings(t *testing.T) {
	var evs []Event
	for i, s := range edgeStrings {
		evs = append(evs,
			Event{Name: s, Cat: s, Phase: PhaseInstant, TsUS: float64(i), PID: 1, TID: i, Scope: "t",
				Args: []Arg{Str(s, s)}},
			Event{Name: "k", Cat: "c", Phase: PhaseComplete, TsUS: 1, DurUS: 2, PID: 1, TID: 1,
				Args: []Arg{Str("a"+s, "x"), Str("b", s)}})
	}
	// Every control byte on its own.
	for c := 0; c < 0x20; c++ {
		evs = append(evs, Event{Name: string(rune(c)), Phase: PhaseInstant, PID: 1,
			Args: []Arg{Str("v", "<"+string(rune(c))+">")}})
	}
	checkAgainstOracle(t, evs)
	// The valid-UTF-8 subset must round-trip byte for byte.
	var valid []Event
	for _, e := range evs {
		if validUTF8([]Event{e}) {
			valid = append(valid, e)
		}
	}
	checkAgainstOracle(t, valid)
}

func TestChromeWriterFloats(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 42, 921, 1300.5, 0.1, 1.0 / 3,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 1.5e-10, 1e-100,
		1e20, 1e21, math.Nextafter(1e21, 0), 1e22, 123456789.123, 5e-324,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 9007199254740993, 1e15 + 0.25,
	}
	var evs []Event
	for i, v := range vals {
		for _, f := range []float64{v, -v} {
			evs = append(evs, Event{Name: "f", Cat: "c", Phase: PhaseComplete, TsUS: math.Abs(f),
				DurUS: f, PID: 1, TID: i, Args: []Arg{Float("queued_ms", math.Trunc(f)), Float("v", f)}})
		}
	}
	checkAgainstOracle(t, evs)
}

func TestChromeWriterFieldsAndKinds(t *testing.T) {
	evs := []Event{
		{Name: "zero-dur span", Cat: "c", Phase: PhaseComplete, TsUS: 5, PID: 1, TID: 1},
		{Name: "negative zero dur", Cat: "c", Phase: PhaseComplete, TsUS: 5, DurUS: math.Copysign(0, -1), PID: 1, TID: 1},
		{Name: "empty args", Cat: "c", Phase: PhaseInstant, TsUS: 5, PID: 1, TID: 1, Scope: "t", Args: []Arg{}},
		{Name: "no scope", Cat: "c", Phase: PhaseInstant, TsUS: 5, PID: 0, TID: -3},
		{Name: "ints", Cat: "c", Phase: PhaseInstant, PID: 1, TID: math.MaxInt32, Args: []Arg{
			Int("a", 0), Int("b", -7), Int("c", math.MaxInt64), Int("d", math.MinInt64)}},
		{Name: "bools", Cat: "c", Phase: PhaseInstant, PID: 1, Args: []Arg{Bool("aborted", true), Bool("ok", false)}},
	}
	checkAgainstOracle(t, evs)
	checkAgainstOracle(t, nil)
	checkAgainstOracle(t, []Event{})
}

func TestChromeWriterRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, ev := range map[string]Event{
			"ts":  {Name: "e", Phase: PhaseInstant, TsUS: bad},
			"dur": {Name: "e", Phase: PhaseComplete, DurUS: bad},
			"arg": {Name: "e", Phase: PhaseInstant, Args: []Arg{Float("v", bad)}},
		} {
			evs := []Event{{Name: "ok", Phase: PhaseInstant}, ev}
			if err := oracleWrite(io.Discard, evs); err == nil {
				t.Fatalf("%s=%v: the oracle accepted it", name, bad)
			}
			if err := WriteChromeTrace(io.Discard, evs); err == nil {
				t.Fatalf("%s=%v: WriteChromeTrace accepted a non-finite number", name, bad)
			}
		}
	}
	tr := NewTracer()
	tr.Instant("c", "n", 1, 0, Float("power_w", math.NaN()))
	if err := tr.WriteTrace(io.Discard); err == nil {
		t.Fatal("WriteTrace accepted a NaN arg")
	}
}

// TestTracerWriteTraceMatchesOracle drives the tracer with seeded random
// events on several tracks (out of timestamp order, with ties) and requires
// WriteTrace, WriteChromeTrace(Events()) and the encoding/json oracle to
// agree byte for byte.
func TestTracerWriteTraceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pick := func() string { return edgeStrings[rng.Intn(len(edgeStrings))] }
	tr := NewTracer()
	for i := 0; i < 5000; i++ {
		tid := []int{0, 1, 10, 100, 101, 1000}[rng.Intn(6)]
		at := time.Duration(rng.Intn(200)) * time.Microsecond * time.Duration(1+rng.Intn(1000))
		args := []Arg{Float("busy", rng.Float64()), Int("gpu_level", rng.Intn(14)), Str("model", pick())}
		args = args[:rng.Intn(len(args)+1)]
		if rng.Intn(8) == 0 {
			args = append(args, Bool("aborted", rng.Intn(2) == 0), Float("power_w", rng.ExpFloat64()*1e-6))
		}
		if rng.Intn(2) == 0 {
			tr.Instant(pick(), pick(), tid, at, args...)
		} else {
			tr.Complete(pick(), pick(), tid, at, time.Duration(rng.Intn(3))*time.Millisecond, args...)
		}
	}
	var direct, viaEvents bytes.Buffer
	if err := tr.WriteTrace(&direct); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if err := WriteChromeTrace(&viaEvents, evs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), viaEvents.Bytes()) {
		t.Fatal("WriteTrace differs from WriteChromeTrace(Events())")
	}
	if got := checkAgainstOracle(t, evs); !bytes.Equal(got, direct.Bytes()) {
		t.Fatal("WriteTrace differs from the oracle")
	}
}

func TestNilAndEmptyTracerWrite(t *testing.T) {
	var want bytes.Buffer
	if err := oracleWrite(&want, nil); err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*Tracer{"nil": nil, "empty": NewTracer()} {
		var got bytes.Buffer
		if err := tr.WriteTrace(&got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s tracer wrote %q, want %q", name, got.String(), want.String())
		}
	}
}

func TestReadChromeTraceTypedArgs(t *testing.T) {
	doc := `{
	  "displayTimeUnit": "ms",
	  "traceEvents": [
	    {"name": "e", "ph": "i", "ts": 1, "args": {
	      "int": 42, "neg": -7, "negzero": -0, "frac": 1.5, "exp": 1e-7, "big": 100000000000000000000,
	      "s": "a\"b é", "t": true, "f": false, "dup": 1, "dup": 2}},
	    {"name": "no args", "ph": "X", "ts": 2, "dur": 3, "args": {}}
	  ]
	}`
	evs, err := ReadChromeTrace(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := []Arg{Float("big", 1e20), Int("dup", 2), Float("exp", 1e-7), Bool("f", false),
		Float("frac", 1.5), Int("int", 42), Int("neg", -7), Float("negzero", math.Copysign(0, -1)),
		Str("s", "a\"b é"), Bool("t", true)}
	if len(evs) != 2 || len(evs[0].Args) != len(want) {
		t.Fatalf("events = %+v", evs)
	}
	for i, a := range want {
		if evs[0].Args[i] != a {
			t.Fatalf("arg %d = %+v (%v), want %+v (%v)", i, evs[0].Args[i], evs[0].Args[i].Value(), a, a.Value())
		}
	}
	if evs[1].Args != nil || evs[1].DurUS != 3 {
		t.Fatalf("event 1 = %+v", evs[1])
	}
	for _, bad := range []string{
		`{"traceEvents":[{"name":"x","ph":"i","args":{"nested":{"a":1}}}]}`,
		`{"traceEvents":[{"name":"x","ph":"i","args":{"list":[1]}}]}`,
		`{"traceEvents":[{"name":"x","ph":"i","args":{"null":null}}]}`,
		`{"traceEvents":[{"name":"x","ph":"i","args":[1]}]}`,
		`{"traceEvents":{}}`,
		`{"traceEvents":[{"name":"x","ph":"i"}`,
	} {
		if _, err := ReadChromeTrace(strings.NewReader(bad)); err == nil {
			t.Fatalf("ReadChromeTrace accepted %s", bad)
		}
	}
}

// TestTracerEmitAllocs pins the emission hot path: a warm three-arg instant
// (the executor's per-window decision shape) allocates nothing beyond the
// amortized storage chunks.
func TestTracerEmitAllocs(t *testing.T) {
	o := New()
	emit := func() {
		o.Mark("decision", "guard(multiplan)", time.Millisecond,
			Float("busy", 0.5), Int("gpu_level", 7), Float("power_w", 4.25))
	}
	for i := 0; i < 2*maxRecChunk; i++ {
		emit()
	}
	if n := testing.AllocsPerRun(1000, emit); n != 0 {
		t.Fatalf("warm 3-arg instant allocates %v times per emission, want 0", n)
	}
}
