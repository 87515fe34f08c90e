package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Chrome trace_event JSON, object form (the one Perfetto's legacy importer
// and chrome://tracing load directly):
//
//	{"traceEvents":[{"name":…,"cat":…,"ph":…,"ts":…,"dur":…,"pid":…,"tid":…,"s":…,"args":{…}},…],"displayTimeUnit":"ms"}
//
// followed by a newline. The writer is hand-written for speed and produces
// the bytes encoding/json's Encoder writes for the equivalent tagged struct
// with map args (the test oracle in trace_json_test.go): fields in the order
// above; dur omitted when 0, s when empty, args when empty; floats formatted
// like encoding/json (shortest round-trip, exponent form below 1e-6 and at
// 1e21 and above, e-07 written e-7); strings HTML-safe escaped (<, >, & and
// U+2028/U+2029 as \u escapes, invalid UTF-8 as U+FFFD). NaN and ±Inf are
// errors, since JSON cannot carry them.

// flushAt is the buffered size at which the writer hands bytes to the
// underlying io.Writer.
const flushAt = 64 << 10

// chromeWriter streams one Chrome trace document.
type chromeWriter struct {
	w   io.Writer
	buf []byte
	n   int // events written
}

func newChromeWriter(w io.Writer) *chromeWriter {
	cw := &chromeWriter{w: w, buf: make([]byte, 0, flushAt+4096)}
	cw.buf = append(cw.buf, `{"traceEvents":[`...)
	return cw
}

// event appends one event. After an error the document is abandoned.
func (cw *chromeWriter) event(e *Event) error {
	if cw.n > 0 {
		cw.buf = append(cw.buf, ',')
	}
	var err error
	if cw.buf, err = appendEvent(cw.buf, e); err != nil {
		return err
	}
	cw.n++
	if len(cw.buf) >= flushAt {
		_, err = cw.w.Write(cw.buf)
		cw.buf = cw.buf[:0]
	}
	return err
}

// close ends the document and flushes it.
func (cw *chromeWriter) close() error {
	cw.buf = append(cw.buf, `],"displayTimeUnit":"ms"}`+"\n"...)
	_, err := cw.w.Write(cw.buf)
	return err
}

// WriteChromeTrace writes events as a Chrome trace_event JSON document,
// each event's args in slice order (Events and ReadChromeTrace return them
// sorted by key). An event with a NaN or infinite number stops the write
// with an error; what was already flushed stays written.
func WriteChromeTrace(w io.Writer, events []Event) error {
	cw := newChromeWriter(w)
	for i := range events {
		if err := cw.event(&events[i]); err != nil {
			return err
		}
	}
	return cw.close()
}

func appendEvent(b []byte, e *Event) ([]byte, error) {
	var err error
	b = append(b, `{"name":`...)
	b = appendJSONString(b, e.Name)
	b = append(b, `,"cat":`...)
	b = appendJSONString(b, e.Cat)
	b = append(b, `,"ph":`...)
	b = appendJSONString(b, e.Phase)
	b = append(b, `,"ts":`...)
	if b, err = appendJSONFloat(b, e.TsUS, e.Name); err != nil {
		return b, err
	}
	if e.DurUS != 0 {
		b = append(b, `,"dur":`...)
		if b, err = appendJSONFloat(b, e.DurUS, e.Name); err != nil {
			return b, err
		}
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(e.PID), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(e.TID), 10)
	if e.Scope != "" {
		b = append(b, `,"s":`...)
		b = appendJSONString(b, e.Scope)
	}
	if len(e.Args) > 0 {
		b = append(b, `,"args":{`...)
		for i := range e.Args {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendArg(b, &e.Args[i], e.Name); err != nil {
				return b, err
			}
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

func appendArg(b []byte, a *Arg, event string) ([]byte, error) {
	b = appendJSONString(b, a.Key)
	b = append(b, ':')
	switch a.kind {
	case kindInt:
		return strconv.AppendInt(b, int64(a.num), 10), nil
	case kindFloat:
		return appendJSONFloat(b, math.Float64frombits(a.num), event)
	case kindStr:
		return appendJSONString(b, a.str), nil
	default:
		return strconv.AppendBool(b, a.num != 0), nil
	}
}

// appendJSONFloat formats f the way encoding/json does (ES6 number to
// string conversion).
func appendJSONFloat(b []byte, f float64, event string) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("obs: event %q: unsupported value %s", event, strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// jsonPlain marks the ASCII bytes an HTML-safe JSON string carries as is.
var jsonPlain = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendJSONString appends s as an HTML-safe JSON string, escaped exactly
// as encoding/json's Encoder escapes it.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonPlain[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// wireEvent is the decoding shape of one trace event.
type wireEvent struct {
	Name  string   `json:"name"`
	Cat   string   `json:"cat"`
	Phase string   `json:"ph"`
	TsUS  float64  `json:"ts"`
	DurUS float64  `json:"dur"`
	PID   int      `json:"pid"`
	TID   int      `json:"tid"`
	Scope string   `json:"s"`
	Args  wireArgs `json:"args"`
}

// wireArgs decodes an args object straight into typed args.
type wireArgs []Arg

func (a *wireArgs) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*a = nil
		return nil
	}
	args, err := parseArgs(nil, b)
	if len(args) > 0 {
		*a = args
	}
	return err
}

// ReadChromeTrace decodes a Chrome trace_event JSON document written by
// WriteChromeTrace (the round-trip decoder the export tests rely on). Args
// come back typed and sorted by key, so that writing the events again
// reproduces the document byte for byte: strings and booleans as Str and
// Bool, integer literals as Int, every other number (and -0) as Float. Args
// that are not scalars are an error.
func ReadChromeTrace(r io.Reader) ([]Event, error) {
	var doc struct {
		TraceEvents []wireEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("obs: decode chrome trace: %w", err)
	}
	out := make([]Event, len(doc.TraceEvents))
	for i, w := range doc.TraceEvents {
		if w.Phase == "" {
			return nil, fmt.Errorf("obs: event %d (%q) has no phase", i, w.Name)
		}
		out[i] = Event{Name: w.Name, Cat: w.Cat, Phase: w.Phase, TsUS: w.TsUS, DurUS: w.DurUS,
			PID: w.PID, TID: w.TID, Scope: w.Scope, Args: w.Args}
	}
	return out, nil
}

// parseArgs appends the typed args of b, a JSON object of scalars already
// validated by the decoder, to dst, sorted by key. A repeated key keeps its
// last value, as decoding into a map would.
func parseArgs(dst []Arg, b []byte) ([]Arg, error) {
	p := argParser{b: b}
	start := len(dst)
	if !p.eat('{') {
		return dst, fmt.Errorf("args are not an object")
	}
	for !p.eat('}') {
		if len(dst) > start && !p.eat(',') {
			return dst, fmt.Errorf("malformed args object")
		}
		key, err := p.str()
		if err != nil {
			return dst, err
		}
		if !p.eat(':') {
			return dst, fmt.Errorf("malformed args object")
		}
		a, err := p.value(key)
		if err != nil {
			return dst, err
		}
		dst = append(dst, a)
	}
	args := dst[start:]
	sortArgs(args)
	n := 0
	for i := range args {
		if n > 0 && args[n-1].Key == args[i].Key {
			n--
		}
		args[n] = args[i]
		n++
	}
	return dst[:start+n], nil
}

type argParser struct {
	b []byte
	i int
}

func (p *argParser) skipSpace() {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\t' || p.b[p.i] == '\n' || p.b[p.i] == '\r') {
		p.i++
	}
}

// eat consumes c (after whitespace) if it is next.
func (p *argParser) eat(c byte) bool {
	p.skipSpace()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str consumes a JSON string.
func (p *argParser) str() (string, error) {
	p.skipSpace()
	start := p.i
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return "", fmt.Errorf("malformed args object")
	}
	plain := true
	for p.i++; p.i < len(p.b) && p.b[p.i] != '"'; p.i++ {
		if c := p.b[p.i]; c == '\\' {
			plain = false
			p.i++
		} else if c >= utf8.RuneSelf {
			plain = false
		}
	}
	if p.i >= len(p.b) {
		return "", fmt.Errorf("malformed args object")
	}
	p.i++
	if plain {
		return string(p.b[start+1 : p.i-1]), nil
	}
	var s string
	err := json.Unmarshal(p.b[start:p.i], &s)
	return s, err
}

// value consumes one scalar value.
func (p *argParser) value(key string) (Arg, error) {
	p.skipSpace()
	if p.i >= len(p.b) {
		return Arg{}, fmt.Errorf("arg %q has no value", key)
	}
	switch c := p.b[p.i]; {
	case c == '"':
		s, err := p.str()
		return Str(key, s), err
	case bytes.HasPrefix(p.b[p.i:], []byte("true")):
		p.i += 4
		return Bool(key, true), nil
	case bytes.HasPrefix(p.b[p.i:], []byte("false")):
		p.i += 5
		return Bool(key, false), nil
	case c == '-' || (c >= '0' && c <= '9'):
		start := p.i
		for p.i < len(p.b) && strings.IndexByte("+-.0123456789Ee", p.b[p.i]) >= 0 {
			p.i++
		}
		return numberArg(key, string(p.b[start:p.i]))
	}
	return Arg{}, fmt.Errorf("arg %q: unsupported value (args must be strings, numbers or booleans)", key)
}

// numberArg types a JSON number literal: an integer literal that fits an int
// is an Int, anything else (fractions, exponents, huge integers, -0) a Float.
func numberArg(key, lit string) (Arg, error) {
	if isIntLiteral(lit) && lit != "-0" {
		if v, err := strconv.ParseInt(lit, 10, strconv.IntSize); err == nil {
			return Int(key, int(v)), nil
		}
	}
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return Arg{}, fmt.Errorf("arg %q: bad number %s", key, lit)
	}
	return Float(key, f), nil
}

// isIntLiteral reports whether s is an optionally negative run of digits.
func isIntLiteral(s string) bool {
	s = strings.TrimPrefix(s, "-")
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
