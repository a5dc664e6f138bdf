package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ExpositionContentType is the Content-Type of GET /metrics: the
// Prometheus text exposition format, version 0.0.4.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the registry in the text exposition format:
// families sorted by name, series sorted by their key-sorted label
// signature, histograms as cumulative _bucket/_sum/_count triples. Two
// renders of the same registry state are byte-identical.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, fam := range r.snapshot() {
		if fam.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam.name, fam.kind)
		for _, s := range fam.series {
			switch fam.kind {
			case kindHistogram:
				writeHistogram(bw, fam.name, s)
			default:
				fmt.Fprintf(bw, "%s%s %s\n", fam.name, s.sig, formatValue(s.val))
			}
		}
	}
	return bw.Flush()
}

// writeHistogram emits the cumulative bucket series, sum and count of
// one histogram series. The le label joins the series' own labels
// inside one brace set.
func writeHistogram(w io.Writer, name string, s seriesSnap) {
	for i, bound := range s.bounds {
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(s.sig, "le", formatValue(bound)), s.cum[i])
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(s.sig, "le", "+Inf"), s.count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, s.sig, formatValue(s.sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, s.sig, s.count)
}

// withLabel appends key="value" to a rendered label signature.
func withLabel(sig, key, value string) string {
	extra := key + `="` + escapeLabelValue(value) + `"`
	if sig == "" {
		return "{" + extra + "}"
	}
	return sig[:len(sig)-1] + "," + extra + "}"
}

// formatValue renders a sample value the way Prometheus expects:
// shortest exact decimal, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp applies the HELP-line escapes (backslash and newline; the
// format leaves quotes alone in help text).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ExpositionStats summarises one parsed exposition document.
type ExpositionStats struct {
	Families int // # TYPE lines
	Series   int // sample lines
}

// sample is one parsed sample line's series identity: metric name and
// labels in document order. Values and timestamps are validated but
// not retained.
type sample struct {
	Name   string
	Labels []Label
}

// sortedSignature renders a label set in its canonical exposition
// form: keys sorted, values escaped. Two label sets with the same pairs
// in any order share a signature — the series-identity contract the
// registry and the duplicate-series check agree on.
func sortedSignature(labels []Label) string {
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	return signature(sorted)
}

// ParseExposition validates a text exposition document (format 0.0.4):
// every sample line must parse (name, optional label set, float value,
// optional timestamp), TYPE lines must name a known metric kind, sample
// names must be well-formed, and no two sample lines may address the
// same series — label order does not disambiguate, because series
// identity is the key-sorted signature. It returns how many families
// and sample lines the document holds. This is the validator behind
// `tracetool metrics` and the CI observability smoke test — it is a
// format check, not a full Prometheus client.
func ParseExposition(r io.Reader) (ExpositionStats, error) {
	var st ExpositionStats
	kinds := make(map[string]string) // declared family name -> TYPE
	seen := make(map[string]bool)    // name + key-sorted signature
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, ok := parseCommentLine(line)
			if !ok {
				continue // free-form comment
			}
			if !validName(name) {
				return st, fmt.Errorf("line %d: invalid metric name %q in %s", lineNo, name, kind)
			}
			if kind == "HELP" {
				continue
			}
			switch rest {
			case kindCounter, kindGauge, kindHistogram, "summary", "untyped":
			default:
				return st, fmt.Errorf("line %d: unknown metric type %q", lineNo, rest)
			}
			if _, dup := kinds[name]; dup {
				return st, fmt.Errorf("line %d: duplicate TYPE for metric %q", lineNo, name)
			}
			kinds[name] = rest
			st.Families++
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return st, fmt.Errorf("line %d: %v", lineNo, err)
		}
		key := s.Name + sortedSignature(s.Labels)
		if seen[key] {
			return st, fmt.Errorf("line %d: duplicate series %s (series identity is the key-sorted label signature)", lineNo, key)
		}
		seen[key] = true
		st.Series++
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	if st.Series == 0 {
		return st, fmt.Errorf("no sample lines")
	}
	return st, nil
}

// parseCommentLine splits "# HELP name text" / "# TYPE name kind";
// ok is false for any other comment.
func parseCommentLine(line string) (kind, name, rest string, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || fields[0] != "#" {
		return "", "", "", false
	}
	if fields[1] != "HELP" && fields[1] != "TYPE" {
		return "", "", "", false
	}
	return fields[1], fields[2], strings.Join(fields[3:], " "), true
}

// parseSampleLine parses one sample: name[{labels}] value [timestamp].
func parseSampleLine(line string) (sample, error) {
	var s sample
	rest := line
	i := strings.IndexAny(rest, "{ \t")
	if i < 0 {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	s.Name = rest[:i]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		labels, end, err := scanLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("sample %q: want value [timestamp], got %q", line, rest)
	}
	if _, err := parseSampleValue(fields[0]); err != nil {
		return s, fmt.Errorf("sample %q: bad value %q", line, fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("sample %q: bad timestamp %q", line, fields[1])
		}
	}
	return s, nil
}

// parseSampleValue accepts floats plus the spelled-out specials.
func parseSampleValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// scanLabels parses a {k="v",...} label block starting at s[0]=='{',
// returning the labels in document order (values unescaped) and the
// index just past the closing brace.
func scanLabels(s string) ([]Label, int, error) {
	var labels []Label
	i := 1
	for {
		// allow {} and trailing comma forms
		if i < len(s) && s[i] == '}' {
			return labels, i + 1, nil
		}
		start := i
		for i < len(s) && s[i] != '=' && s[i] != '}' && s[i] != ',' {
			i++
		}
		if i >= len(s) || s[i] != '=' {
			return nil, 0, fmt.Errorf("label block %q: missing '='", s)
		}
		key := strings.TrimSpace(s[start:i])
		if !validName(key) {
			return nil, 0, fmt.Errorf("label block %q: invalid label name %q", s, s[start:i])
		}
		i++
		if i >= len(s) || s[i] != '"' {
			return nil, 0, fmt.Errorf("label block %q: value not quoted", s)
		}
		i++
		var val strings.Builder
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default: // \\ and \" unescape to themselves
					val.WriteByte(s[i])
				}
				i++
				continue
			}
			val.WriteByte(s[i])
			i++
		}
		if i >= len(s) {
			return nil, 0, fmt.Errorf("label block %q: unterminated value", s)
		}
		i++ // closing quote
		labels = append(labels, Label{Key: key, Value: val.String()})
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}
