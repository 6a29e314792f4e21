// Package mdl implements a Metric Description Language modelled on
// Paradyn's MDL (Section 6.3 of the paper): a small language that
// describes precisely when to turn process-clock and wall-clock timers on
// and off and when to increment and decrement counters. Metric
// descriptions compile into dynamic-instrumentation requests (package
// dyninst) that the tool inserts into the running application at the
// moment the metric is requested.
//
// Syntax (one or more metric blocks; '#' comments):
//
//	metric summation_time {
//	    name "Summation Time";
//	    units seconds;
//	    level CMF;
//	    kind time;
//	    timer process;
//	    constraint array;
//	    at enter CMRTS_reduce_sum: start;
//	    at exit  CMRTS_reduce_sum: stop;
//	}
package mdl

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"nvmap/internal/dyninst"
)

// Kind says what a metric measures.
type Kind int

// Metric kinds.
const (
	Count Kind = iota
	Time
)

// String names the kind.
func (k Kind) String() string {
	if k == Count {
		return "count"
	}
	return "time"
}

// Agg is the cross-node aggregation of a metric's per-node primitives.
type Agg int

// Aggregations.
const (
	AggSum Agg = iota
	AggAvg
)

// String names the aggregation.
func (a Agg) String() string {
	if a == AggSum {
		return "sum"
	}
	return "avg"
}

// ActionKind is what a probe does when its point fires.
type ActionKind int

// Probe actions.
const (
	ActStart ActionKind = iota
	ActStop
	ActInc
	ActDec
)

// String names the action.
func (a ActionKind) String() string {
	switch a {
	case ActStart:
		return "start"
	case ActStop:
		return "stop"
	case ActInc:
		return "inc"
	default:
		return "dec"
	}
}

// Probe is one instrumentation request: at this point, do this.
type Probe struct {
	Point  dyninst.PointID
	Action ActionKind
	Amount float64 // for inc/dec
}

// Metric is a compiled metric description.
type Metric struct {
	ID          string
	Name        string
	Units       string
	Description string
	Level       string
	Kind        Kind
	Timer       dyninst.TimerKind
	Agg         Agg
	Constraints []string
	Probes      []Probe
}

// Error reports an MDL syntax or semantic error with its line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("mdl: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

type token struct {
	kind string // "ident", "string", "number", or the punctuation itself
	text string
	num  float64
	line int
}

func lexMDL(src string) ([]token, error) {
	var toks []token
	line := 1
	i, n := 0, len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '{' || c == '}' || c == ';' || c == ':':
			toks = append(toks, token{kind: string(c), line: line})
			i++
		case c == '"':
			j := i + 1
			for j < n && src[j] != '"' && src[j] != '\n' {
				j++
			}
			if j >= n || src[j] != '"' {
				return nil, errf(line, "unterminated string")
			}
			toks = append(toks, token{kind: "string", text: src[i+1 : j], line: line})
			i = j + 1
		case c >= '0' && c <= '9' || c == '-' || c == '.':
			j := i
			if src[j] == '-' {
				j++
			}
			for j < n && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			v, err := strconv.ParseFloat(src[i:j], 64)
			if err != nil {
				return nil, errf(line, "malformed number %q", src[i:j])
			}
			toks = append(toks, token{kind: "number", num: v, text: src[i:j], line: line})
			i = j
		case isWordByte(c):
			j := i
			for j < n && (isWordByte(src[j]) || src[j] >= '0' && src[j] <= '9') {
				j++
			}
			toks = append(toks, token{kind: "ident", text: src[i:j], line: line})
			i = j
		default:
			return nil, errf(line, "unexpected character %q", string(c))
		}
	}
	toks = append(toks, token{kind: "eof", line: line})
	return toks, nil
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '(' || c == ')'
}

// Parse compiles MDL source into metric definitions.
func Parse(src string) ([]*Metric, error) {
	toks, err := lexMDL(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []*Metric
	seen := map[string]bool{}
	for p.cur().kind != "eof" {
		m, err := p.parseMetric()
		if err != nil {
			return nil, err
		}
		if seen[m.ID] {
			return nil, errf(p.cur().line, "duplicate metric %q", m.ID)
		}
		seen[m.ID] = true
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, errf(1, "no metric definitions")
	}
	return out, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expect(kind string) (token, error) {
	t := p.cur()
	if t.kind != kind {
		return t, errf(t.line, "expected %s, got %s %q", kind, t.kind, t.text)
	}
	p.pos++
	return t, nil
}

func (p *parser) keyword(word string) error {
	t, err := p.expect("ident")
	if err != nil {
		return err
	}
	if t.text != word {
		return errf(t.line, "expected %q, got %q", word, t.text)
	}
	return nil
}

func (p *parser) parseMetric() (*Metric, error) {
	if err := p.keyword("metric"); err != nil {
		return nil, err
	}
	id, err := p.expect("ident")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("{"); err != nil {
		return nil, err
	}
	m := &Metric{ID: id.text, Kind: Count, Timer: dyninst.ProcessTimer, Agg: AggSum}
	for p.cur().kind != "}" {
		if err := p.parseField(m); err != nil {
			return nil, err
		}
	}
	p.pos++ // consume '}'
	if err := validate(m, id.line); err != nil {
		return nil, err
	}
	return m, nil
}

func (p *parser) parseField(m *Metric) error {
	key, err := p.expect("ident")
	if err != nil {
		return err
	}
	endField := func() error {
		_, err := p.expect(";")
		return err
	}
	identValue := func() (string, error) {
		t, err := p.expect("ident")
		if err != nil {
			return "", err
		}
		return t.text, err
	}
	switch key.text {
	case "name":
		t, err := p.expect("string")
		if err != nil {
			return err
		}
		m.Name = t.text
		return endField()
	case "description":
		t, err := p.expect("string")
		if err != nil {
			return err
		}
		m.Description = t.text
		return endField()
	case "units":
		v, err := identValue()
		if err != nil {
			return err
		}
		m.Units = v
		return endField()
	case "level":
		v, err := identValue()
		if err != nil {
			return err
		}
		m.Level = v
		return endField()
	case "kind":
		v, err := identValue()
		if err != nil {
			return err
		}
		switch v {
		case "count":
			m.Kind = Count
		case "time":
			m.Kind = Time
		default:
			return errf(key.line, "kind must be count or time, got %q", v)
		}
		return endField()
	case "timer":
		v, err := identValue()
		if err != nil {
			return err
		}
		switch v {
		case "process":
			m.Timer = dyninst.ProcessTimer
		case "wall":
			m.Timer = dyninst.WallTimer
		default:
			return errf(key.line, "timer must be process or wall, got %q", v)
		}
		return endField()
	case "aggregate":
		v, err := identValue()
		if err != nil {
			return err
		}
		switch v {
		case "sum":
			m.Agg = AggSum
		case "avg":
			m.Agg = AggAvg
		default:
			return errf(key.line, "aggregate must be sum or avg, got %q", v)
		}
		return endField()
	case "constraint":
		v, err := identValue()
		if err != nil {
			return err
		}
		m.Constraints = append(m.Constraints, v)
		return endField()
	case "at":
		return p.parseProbe(m, key.line)
	default:
		return errf(key.line, "unknown field %q", key.text)
	}
}

// maxAmount bounds an inc/dec amount: counters stay exact integers up to
// 2^53, and no number of fires can overflow one to infinity.
const maxAmount = 1 << 53

func (p *parser) parseProbe(m *Metric, line int) error {
	whereTok, err := p.expect("ident")
	if err != nil {
		return err
	}
	var where dyninst.PointKind
	switch whereTok.text {
	case "enter":
		where = dyninst.PointEntry
	case "exit":
		where = dyninst.PointExit
	case "mapping":
		where = dyninst.MappingPoint
	default:
		return errf(line, "probe position must be enter, exit, or mapping; got %q", whereTok.text)
	}
	fn, err := p.expect("ident")
	if err != nil {
		return err
	}
	if _, err := p.expect(":"); err != nil {
		return err
	}
	actTok, err := p.expect("ident")
	if err != nil {
		return err
	}
	probe := Probe{Point: dyninst.PointID{Function: fn.text, Where: where}}
	switch actTok.text {
	case "start":
		probe.Action = ActStart
	case "stop":
		probe.Action = ActStop
	case "inc", "dec":
		probe.Action = ActInc
		if actTok.text == "dec" {
			probe.Action = ActDec
		}
		amt, err := p.expect("number")
		if err != nil {
			return err
		}
		if math.Abs(amt.num) > maxAmount {
			return errf(line, "amount %s exceeds %g", amt.text, float64(maxAmount))
		}
		probe.Amount = amt.num
	default:
		return errf(line, "action must be start, stop, inc, or dec; got %q", actTok.text)
	}
	m.Probes = append(m.Probes, probe)
	_, err = p.expect(";")
	return err
}

func validate(m *Metric, line int) error {
	if m.Name == "" {
		return errf(line, "metric %s: name is required", m.ID)
	}
	if len(m.Probes) == 0 {
		return errf(line, "metric %s: at least one probe is required", m.ID)
	}
	starts, stops, bumps := 0, 0, 0
	for _, pr := range m.Probes {
		switch pr.Action {
		case ActStart:
			starts++
		case ActStop:
			stops++
		default:
			bumps++
		}
	}
	switch m.Kind {
	case Time:
		if starts == 0 || stops == 0 {
			return errf(line, "metric %s: time metrics need start and stop probes", m.ID)
		}
		if bumps > 0 {
			return errf(line, "metric %s: time metrics cannot inc/dec", m.ID)
		}
	case Count:
		if starts > 0 || stops > 0 {
			return errf(line, "metric %s: count metrics cannot start/stop timers", m.ID)
		}
	}
	return nil
}

// Library indexes compiled metrics by ID.
type Library struct {
	metrics map[string]*Metric
	order   []string
	// shared marks a library whose tables belong to a shared prototype
	// (StdLibrary): Add copies them before the first mutation, so handing
	// every session the standard set costs one allocation, not a rebuild.
	shared bool
}

// NewLibrary compiles MDL source into a library.
func NewLibrary(src string) (*Library, error) {
	ms, err := Parse(src)
	if err != nil {
		return nil, err
	}
	lib := &Library{metrics: make(map[string]*Metric)}
	for _, m := range ms {
		lib.metrics[m.ID] = m
		lib.order = append(lib.order, m.ID)
	}
	return lib, nil
}

// Add compiles additional MDL source into the library (users define new
// metrics at run time in Paradyn).
func (l *Library) Add(src string) error {
	ms, err := Parse(src)
	if err != nil {
		return err
	}
	if l.shared {
		metrics := make(map[string]*Metric, len(l.metrics)+len(ms))
		for k, v := range l.metrics {
			metrics[k] = v
		}
		l.metrics = metrics
		l.order = append([]string(nil), l.order...)
		l.shared = false
	}
	for _, m := range ms {
		if _, dup := l.metrics[m.ID]; dup {
			return fmt.Errorf("mdl: metric %q already defined", m.ID)
		}
		l.metrics[m.ID] = m
		l.order = append(l.order, m.ID)
	}
	return nil
}

// Get returns a metric by ID.
func (l *Library) Get(id string) (*Metric, bool) {
	m, ok := l.metrics[id]
	return m, ok
}

// IDs lists metric IDs in definition order.
func (l *Library) IDs() []string { return append([]string(nil), l.order...) }

// AtLevel lists metrics declared at one abstraction level.
func (l *Library) AtLevel(level string) []*Metric {
	var out []*Metric
	for _, id := range l.order {
		if m := l.metrics[id]; strings.EqualFold(m.Level, level) {
			out = append(out, m)
		}
	}
	return out
}
