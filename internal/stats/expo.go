package stats

import (
	"io"
	"strconv"
	"strings"
)

// This file is the one place that knows the Prometheus text exposition
// format (version 0.0.4). A package declares its families as a table of
// Family rows and writes them with WriteFamilies; Federate merges
// pages this writer produced.

// Family types, as the TYPE line spells them.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Family is one row of a metrics table: the name, type and HELP text
// of a family's header, and the function that writes its samples from
// a view of type V. When, if set, reports whether the family is on the
// page at all; a family without When always prints its header, even
// with no samples.
type Family[V any] struct {
	Name, Type, Help string
	When             func(v V) bool
	Write            func(e *Expo, v V)
}

// WriteFamilies writes the table in row order from one view.
func WriteFamilies[V any](w io.Writer, table []Family[V], v V) {
	e := &Expo{w: w}
	for _, f := range table {
		if f.When == nil || f.When(v) {
			e.name = f.Name
			io.WriteString(w, "# HELP "+f.Name+" "+f.Help+"\n# TYPE "+f.Name+" "+f.Type+"\n")
			f.Write(e, v)
		}
	}
}

// Expo writes the samples of the family being rendered. Labels are
// name/value pairs; values are written %q-quoted.
type Expo struct {
	w    io.Writer
	name string
	buf  []byte
}

// Int writes an integer sample. Integer series stay integers however
// large they grow, never switching to exponent notation.
func (e *Expo) Int(v int64, labels ...string) {
	e.sample("", labels, "", strconv.FormatInt(v, 10))
}

// Float writes a float sample in the shortest exact form.
func (e *Expo) Float(v float64, labels ...string) {
	e.sample("", labels, "", formatFloat(v))
}

// Hist writes h as cumulative _bucket series, then _sum and _count.
// Bounds and sum are divided by scale, so a histogram recorded in
// nanoseconds is exposed in seconds with scale 1e9. The +Inf bucket
// is the sample count, which every bucket sums to.
func (e *Expo) Hist(h *ExpHistogram, scale float64, labels ...string) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		e.sample("_bucket", labels, formatFloat(b/scale), strconv.FormatUint(cum, 10))
	}
	e.sample("_bucket", labels, "+Inf", strconv.FormatUint(h.n, 10))
	e.sample("_sum", labels, "", formatFloat(h.sum/scale))
	e.sample("_count", labels, "", strconv.FormatUint(h.n, 10))
}

// sample writes one line: the family name plus suffix, the label
// block with le appended when set, and the value.
func (e *Expo) sample(suffix string, labels []string, le, value string) {
	if le != "" {
		labels = append(labels[:len(labels):len(labels)], "le", le)
	}
	e.buf = append(append(e.buf[:0], e.name...), suffix...)
	sep := byte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		e.buf = strconv.AppendQuote(append(append(append(e.buf, sep), labels[i]...), '='), labels[i+1])
		sep = ','
	}
	if sep == ',' {
		e.buf = append(e.buf, '}')
	}
	e.buf = append(append(append(e.buf, ' '), value...), '\n')
	e.w.Write(e.buf)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Federate appends one node's page to a federated page on w, with
// label="value" injected as the first label of every sample (an empty
// label copies samples unchanged). A HELP or TYPE line is copied only
// if seen lacks it, then recorded there, so a family an earlier page
// declared is not declared twice while one only this page declares
// keeps both its HELP and its TYPE.
func Federate(w io.Writer, page []byte, label, value string, seen map[string]bool) {
	injected := label + "=" + strconv.Quote(value)
	for _, line := range strings.Split(string(page), "\n") {
		key, header := headerKey(line)
		i := strings.IndexAny(line, "{ ")
		switch {
		case header && !seen[key]:
			seen[key] = true
			io.WriteString(w, line+"\n")
		case header || line == "" || line[0] == '#':
		case label == "" || i < 0:
			io.WriteString(w, line+"\n")
		case line[i] == ' ' || strings.HasPrefix(line[i:], "{}"):
			io.WriteString(w, line[:i]+"{"+injected+"}"+strings.TrimPrefix(line[i:], "{}")+"\n")
		default:
			io.WriteString(w, line[:i+1]+injected+","+line[i+1:]+"\n")
		}
	}
}

// headerKey reports whether line is a HELP or TYPE header, and its
// dedup key.
func headerKey(line string) (string, bool) {
	if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
		return "", false
	}
	f := strings.Fields(line)
	if len(f) < 3 {
		return "", false
	}
	return f[1] + " " + f[2], true
}
