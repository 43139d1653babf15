package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// WriteOpenMetrics renders the registry in OpenMetrics text format:
// families grouped with one # HELP / # TYPE pair each, samples in
// registration order within a family, and a terminating # EOF line.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	samples := r.Gather()
	r.mu.RLock()
	helps := make(map[string]string, len(r.helps))
	for k, v := range r.helps {
		helps[k] = v
	}
	r.mu.RUnlock()

	seen := make(map[string]bool, len(samples))
	for _, s := range samples {
		if !seen[s.Family] {
			seen[s.Family] = true
			if h := helps[s.Family]; h != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", s.Family, h)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.Family, s.Kind)
		}
		if s.Hist != nil {
			writeHistogram(bw, s)
			continue
		}
		fmt.Fprintf(bw, "%s %s\n", s.Name, formatValue(s.Value))
	}
	fmt.Fprint(bw, "# EOF\n")
	return bw.Flush()
}

// writeHistogram renders one histogram sample's buckets, sum and count.
// Bucket names splice the le label into the sample's existing label set.
func writeHistogram(w io.Writer, s Sample) {
	h := s.Hist
	cum := uint64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatValue(h.bounds[i])
		}
		fmt.Fprintf(w, "%s %d\n", spliceLabel(s.Name, "_bucket", "le", le), cum)
	}
	fmt.Fprintf(w, "%s %s\n", spliceSuffix(s.Name, "_sum"), formatValue(h.Sum()))
	fmt.Fprintf(w, "%s %d\n", spliceSuffix(s.Name, "_count"), h.Count())
}

// spliceSuffix inserts a suffix into a rendered sample name before any
// label block: "x{a=\"b\"}" + "_sum" → "x_sum{a=\"b\"}".
func spliceSuffix(full, suffix string) string {
	if i := strings.IndexByte(full, '{'); i >= 0 {
		return full[:i] + suffix + full[i:]
	}
	return full + suffix
}

// spliceLabel inserts a suffix and one extra label into a rendered name.
func spliceLabel(full, suffix, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if i := strings.IndexByte(full, '{'); i >= 0 {
		return full[:i] + suffix + "{" + extra + "," + full[i+1:]
	}
	return full + suffix + "{" + extra + "}"
}

// formatValue renders a float the way Prometheus expects: integral values
// without an exponent or trailing zeros, everything else via %g.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteJSONLSnapshot writes one JSONL line mapping every rendered series
// name to its current value — the sweep-side analogue of a heartbeat row.
// Keys are emitted in registration order, so consecutive lines diff
// cleanly. seq is a caller-maintained snapshot index.
func (r *Registry) WriteJSONLSnapshot(w io.Writer, seq int) error {
	samples := r.Gather()
	var b strings.Builder
	fmt.Fprintf(&b, `{"snapshot":%d,"series":{`, seq)
	for i, s := range samples {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%s", s.Name, formatValue(s.Value))
	}
	b.WriteString("}}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Exposition-lint patterns: one compiled set shared by Lint callers (the
// lint_test.go gate and the CI scrape job's offline check).
var (
	lintSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|[+-]Inf|NaN)$`)
	lintMetaRe   = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
	lintLabelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
)

// Lint validates an OpenMetrics exposition: every line is either metadata
// (# HELP / # TYPE), a well-formed sample, or the final # EOF; counter
// samples end in _total (or histogram series suffixes); each family's TYPE
// precedes its samples; each family's samples are contiguous; no series
// name repeats. It returns every problem found (empty means clean).
func Lint(exposition []byte) []string {
	var problems []string
	typed := make(map[string]string) // family → declared type
	seen := make(map[string]bool)    // full sample names
	done := make(map[string]bool)    // families whose samples another family's followed
	current := ""                    // family of the previous sample
	lines := strings.Split(string(exposition), "\n")
	sawEOF := false
	for n, line := range lines {
		if line == "" {
			if n != len(lines)-1 {
				problems = append(problems, fmt.Sprintf("line %d: blank line inside exposition", n+1))
			}
			continue
		}
		if sawEOF {
			problems = append(problems, fmt.Sprintf("line %d: content after # EOF", n+1))
			continue
		}
		if line == "# EOF" {
			sawEOF = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !lintMetaRe.MatchString(line) {
				problems = append(problems, fmt.Sprintf("line %d: malformed metadata %q", n+1, line))
				continue
			}
			f := strings.Fields(line)
			if f[1] == "TYPE" {
				typed[f[2]] = f[3]
			}
			continue
		}
		m := lintSampleRe.FindStringSubmatch(line)
		if m == nil {
			problems = append(problems, fmt.Sprintf("line %d: malformed sample %q", n+1, line))
			continue
		}
		name, labels := m[1], m[2]
		if labels != "" {
			for _, lv := range splitLabels(labels[1 : len(labels)-1]) {
				if !lintLabelRe.MatchString(lv) {
					problems = append(problems, fmt.Sprintf("line %d: malformed label %q", n+1, lv))
				}
			}
		}
		full := name + labels
		if seen[full] {
			problems = append(problems, fmt.Sprintf("line %d: duplicate series %s", n+1, full))
		}
		seen[full] = true
		family, ok := lintFamily(name, typed)
		if !ok {
			problems = append(problems, fmt.Sprintf("line %d: sample %s has no preceding # TYPE", n+1, name))
			continue
		}
		if typed[family] == "counter" && !strings.HasSuffix(name, "_total") {
			problems = append(problems, fmt.Sprintf("line %d: counter sample %s lacks _total suffix", n+1, name))
		}
		if family != current {
			if done[family] {
				problems = append(problems, fmt.Sprintf("line %d: family %s resumes after family %s's samples", n+1, family, current))
			}
			done[current] = true
			current = family
		}
	}
	if !sawEOF {
		problems = append(problems, "exposition does not end with # EOF")
	}
	return problems
}

// lintFamily resolves a sample name to its declared family, accounting for
// the counter _total and histogram _bucket/_sum/_count suffix conventions.
func lintFamily(name string, typed map[string]string) (string, bool) {
	if _, ok := typed[name]; ok {
		return name, true
	}
	for _, suf := range []string{"_total", "_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if _, ok := typed[base]; ok {
				return base, true
			}
		}
	}
	return "", false
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
