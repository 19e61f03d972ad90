// Package trace defines the per-process task traces the experiments run
// on, and a plain-text on-disk format for them. The paper obtains one
// trace file per process (150 in total) from instrumented NWChem runs;
// this package carries the same information: for every task, its
// communication time, computation time and memory requirement, plus the
// application and process the trace came from.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"transched/internal/core"
)

// Trace is one process's task stream.
type Trace struct {
	// App is the application name ("HF", "CCSD", ...).
	App string
	// Process is the rank that produced the trace (0-based).
	Process int
	// Tasks are in submission order.
	Tasks []core.Task
	// FeatureNames, when non-empty, names the columns of the optional
	// per-task feature annotations (internal/model consumes them to fit
	// duration models). The on-disk encoding rides in `#!` comment lines,
	// so readers of the plain v1 format skip annotated traces' extras
	// without noticing.
	FeatureNames []string
	// Features[i] is the feature vector of Tasks[i] (len equal to
	// FeatureNames), or nil when task i carries no annotation. Non-nil
	// only when FeatureNames is set; then len(Features) == len(Tasks).
	Features [][]float64
}

// FeatureRow returns the feature vector of task i, or nil when the trace
// carries no annotation for it.
func (tr *Trace) FeatureRow(i int) []float64 {
	if tr.Features == nil || i < 0 || i >= len(tr.Features) {
		return nil
	}
	return tr.Features[i]
}

// Instance wraps the trace's tasks into a problem instance with the given
// memory capacity.
func (tr *Trace) Instance(capacity float64) *core.Instance {
	return core.NewInstance(tr.Tasks, capacity)
}

// MinCapacity returns mc for this trace: the largest single-task memory
// requirement.
func (tr *Trace) MinCapacity() float64 {
	mc := 0.0
	for _, t := range tr.Tasks {
		if t.Mem > mc {
			mc = t.Mem
		}
	}
	return mc
}

// Header lines of the v1 format.
const (
	magic = "# transched trace v1"
	// Feature annotations ride in `#!`-prefixed lines so that readers of
	// the plain v1 format treat them as comments and skip them. Two forms:
	//
	//	#! features <col> <col> ...     (once, names the columns)
	//	#! feat <task> <val> <val> ...  (per task, after its task line)
	annFeatures = "features"
	annFeat     = "feat"
)

// Write serialises the trace:
//
//	# transched trace v1
//	app <name>
//	process <rank>
//	task <name> <comm> <comp> <mem>
//	...
//
// Write output always reads back (Read(Write(tr)) == tr), so Write
// rejects, before writing anything, every trace Validate rejects. An
// empty App is represented by omitting the app line.
func Write(w io.Writer, tr *Trace) error {
	if err := Validate(tr); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, magic)
	if len(tr.FeatureNames) > 0 {
		fmt.Fprintf(bw, "#! %s %s\n", annFeatures, strings.Join(tr.FeatureNames, " "))
	}
	if tr.App != "" {
		fmt.Fprintf(bw, "app %s\n", tr.App)
	}
	fmt.Fprintf(bw, "process %d\n", tr.Process)
	for i, t := range tr.Tasks {
		fmt.Fprintf(bw, "task %s %s %s %s\n", t.Name,
			formatFloat(t.Comm), formatFloat(t.Comp), formatFloat(t.Mem))
		if row := tr.FeatureRow(i); row != nil {
			fmt.Fprintf(bw, "#! %s %s", annFeat, t.Name)
			for _, v := range row {
				fmt.Fprintf(bw, " %s", formatFloat(v))
			}
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}

// Validate reports whether the format can represent tr, which is
// exactly when Write accepts it: it rejects whitespace in names (the
// format is whitespace-delimited), empty names, duplicate names,
// non-finite or invalid task fields, and malformed feature annotations.
// Every trace Read returns passes.
func Validate(tr *Trace) error {
	if tr.App != "" && strings.ContainsFunc(tr.App, unicode.IsSpace) {
		return fmt.Errorf("trace: app name %q contains whitespace", tr.App)
	}
	if err := validateFeatures(tr); err != nil {
		return err
	}
	seen := make(map[string]struct{}, len(tr.Tasks))
	for _, t := range tr.Tasks {
		if err := t.Validate(); err != nil {
			return err
		}
		if t.Name == "" {
			return fmt.Errorf("trace: task with empty name")
		}
		if strings.ContainsFunc(t.Name, unicode.IsSpace) {
			return fmt.Errorf("trace: task name %q contains whitespace", t.Name)
		}
		if _, dup := seen[t.Name]; dup {
			return fmt.Errorf("trace: duplicate task name %q", t.Name)
		}
		seen[t.Name] = struct{}{}
	}
	return nil
}

// validateFeatures rejects annotation state the format cannot represent:
// feature rows without column names, misaligned lengths, names the
// whitespace-delimited encoding would mangle, and non-finite values.
func validateFeatures(tr *Trace) error {
	for _, n := range tr.FeatureNames {
		if n == "" {
			return fmt.Errorf("trace: empty feature name")
		}
		if strings.ContainsFunc(n, unicode.IsSpace) {
			return fmt.Errorf("trace: feature name %q contains whitespace", n)
		}
	}
	for i, n := range tr.FeatureNames {
		for _, m := range tr.FeatureNames[:i] {
			if n == m {
				return fmt.Errorf("trace: duplicate feature name %q", n)
			}
		}
	}
	if tr.Features == nil {
		return nil
	}
	if len(tr.FeatureNames) == 0 {
		return fmt.Errorf("trace: feature rows without feature names")
	}
	if len(tr.Features) != len(tr.Tasks) {
		return fmt.Errorf("trace: %d feature rows for %d tasks", len(tr.Features), len(tr.Tasks))
	}
	for i, row := range tr.Features {
		if row == nil {
			continue
		}
		if len(row) != len(tr.FeatureNames) {
			return fmt.Errorf("trace: task %d feature row has %d values, want %d",
				i, len(row), len(tr.FeatureNames))
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("trace: task %d has non-finite feature value", i)
			}
		}
	}
	return nil
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// maxLine bounds one line of the format: a line of maxLine bytes or
// more, its '\n' not counted, is rejected with bufio.ErrTooLong.
const maxLine = 16 * 1024 * 1024

// minTaskLine is the length of the shortest task line. No text holds
// more than len/minTaskLine+1 task lines, which caps Parse's presizing
// at what a body of that size can really carry.
const minTaskLine = len("task a 0 0 0\n")

// Read parses a v1 trace from r: it reads r to its end and hands the
// text to Parse. A read error is returned as is.
func Read(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// Nothing writes data again, so the text can share its bytes.
	return Parse(unsafe.String(unsafe.SliceData(data), len(data)))
}

// Parse parses a v1 trace held in text. Malformed input dies here, at
// the codec, never inside a solver: non-finite durations or memory
// requirements (NaN/Inf smuggled through ParseFloat) and duplicate task
// names are rejected with the offending line number.
//
// Parse makes one pass over text and copies none of it: the app, task
// and feature names it returns are substrings of text. Lines split at
// '\n' (a '\r' before it is trailing whitespace) and are trimmed with
// strings.TrimSpace; their fields split as strings.Fields splits them.
func Parse(text string) (*Trace, error) {
	p := parser{
		tr:   &Trace{},
		hint: min(strings.Count(text, "\n")+1, len(text)/minTaskLine+1),
	}
	sawMagic := false
	rest := text
	for line := 1; rest != ""; line++ {
		seg := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			seg, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if len(seg) >= maxLine {
			return nil, bufio.ErrTooLong
		}
		s := strings.TrimSpace(seg)
		if s == "" {
			continue
		}
		if line == 1 {
			if s != magic {
				return nil, fmt.Errorf("trace: line 1: missing header %q", magic)
			}
			sawMagic = true
			continue
		}
		var err error
		switch {
		case strings.HasPrefix(s, "#!"):
			err = p.annotation(p.fields(s[len("#!"):]), line)
		case s[0] == '#': // a comment
		default:
			err = p.directive(p.fields(s), line)
		}
		if err != nil {
			return nil, err
		}
	}
	if !sawMagic {
		return nil, fmt.Errorf("trace: empty input")
	}
	tr := p.tr
	if tr.FeatureNames != nil {
		if p.rows != nil {
			tr.Features = p.rows[:len(tr.Tasks)]
		} else {
			tr.Features = make([][]float64, len(tr.Tasks))
		}
	}
	return tr, nil
}

// parser is Parse's state between lines.
type parser struct {
	tr *Trace
	// names maps each task name to its index in tr.Tasks.
	names map[string]int
	// rows holds the feature rows by task index, allocated at the
	// first '#! feat' line.
	rows [][]float64
	// hint bounds the task count; the first task line presizes
	// tr.Tasks, names and rows with it, so none of them grows.
	hint int
	buf  [8]string
}

// asciiSpace marks the bytes strings.Fields and strings.TrimSpace treat
// as whitespace below utf8.RuneSelf.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// fields is strings.Fields(s). An ASCII line splits into p.buf, which
// the next call reuses, so callers copy what they keep past the line;
// a line with any byte >= utf8.RuneSelf goes through strings.Fields
// itself, so Unicode whitespace splits exactly as strings.Fields has it.
func (p *parser) fields(s string) []string {
	f := p.buf[:0]
	for i := 0; i < len(s); {
		for i < len(s) && asciiSpace[s[i]] {
			i++
		}
		start := i
		for i < len(s) && !asciiSpace[s[i]] {
			if s[i] >= utf8.RuneSelf {
				return strings.Fields(s)
			}
			i++
		}
		if i > start {
			f = append(f, s[start:i])
		}
	}
	return f
}

// directive handles one app, process or task line.
func (p *parser) directive(fields []string, line int) error {
	tr := p.tr
	switch fields[0] {
	case "app":
		if len(fields) != 2 {
			return fmt.Errorf("trace: line %d: want 'app <name>'", line)
		}
		tr.App = fields[1]
	case "process":
		if len(fields) != 2 {
			return fmt.Errorf("trace: line %d: want 'process <rank>'", line)
		}
		rank, err := strconv.Atoi(fields[1])
		if err != nil {
			return fmt.Errorf("trace: line %d: bad process rank: %w", line, err)
		}
		tr.Process = rank
	case "task":
		if len(fields) != 5 {
			return fmt.Errorf("trace: line %d: want 'task <name> <comm> <comp> <mem>'", line)
		}
		var vals [3]float64
		for i := range vals {
			v, err := strconv.ParseFloat(fields[2+i], 64)
			if err != nil {
				return fmt.Errorf("trace: line %d: bad number %q: %w", line, fields[2+i], err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("trace: line %d: non-finite value %q", line, fields[2+i])
			}
			vals[i] = v
		}
		name := fields[1]
		if p.names == nil {
			p.names = make(map[string]int, p.hint)
			tr.Tasks = make([]core.Task, 0, p.hint)
		}
		if _, dup := p.names[name]; dup {
			return fmt.Errorf("trace: line %d: duplicate task name %q", line, name)
		}
		p.names[name] = len(tr.Tasks)
		t := core.Task{Name: name, Comm: vals[0], Comp: vals[1], Mem: vals[2]}
		if err := t.Validate(); err != nil {
			return fmt.Errorf("trace: line %d: %w", line, err)
		}
		tr.Tasks = append(tr.Tasks, t)
	default:
		return fmt.Errorf("trace: line %d: unknown directive %q", line, fields[0])
	}
	return nil
}

// annotation handles the fields of one `#!` line. Unknown annotation
// directives are skipped (they are comments to a plain v1 reader, and a
// future format revision may add more), but the two known forms are
// validated as strictly as the task lines themselves: codec errors die
// here, not in a model fit.
func (p *parser) annotation(fields []string, line int) error {
	if len(fields) == 0 {
		return nil
	}
	tr := p.tr
	switch fields[0] {
	case annFeatures:
		if tr.FeatureNames != nil {
			return fmt.Errorf("trace: line %d: duplicate '#! features' header", line)
		}
		if len(fields) < 2 {
			return fmt.Errorf("trace: line %d: want '#! features <name> ...'", line)
		}
		cols := fields[1:]
		for i, n := range cols {
			for _, m := range cols[:i] {
				if n == m {
					return fmt.Errorf("trace: line %d: duplicate feature name %q", line, n)
				}
			}
		}
		tr.FeatureNames = append([]string(nil), cols...) // fields may be p.buf
	case annFeat:
		if tr.FeatureNames == nil {
			return fmt.Errorf("trace: line %d: '#! feat' before '#! features' header", line)
		}
		if len(fields) != 2+len(tr.FeatureNames) {
			return fmt.Errorf("trace: line %d: want '#! feat <task> %d values', got %d",
				line, len(tr.FeatureNames), len(fields)-2)
		}
		name := fields[1]
		i, ok := p.names[name]
		if !ok {
			return fmt.Errorf("trace: line %d: '#! feat' for unknown task %q", line, name)
		}
		if p.rows == nil {
			p.rows = make([][]float64, p.hint)
		}
		if p.rows[i] != nil {
			return fmt.Errorf("trace: line %d: duplicate '#! feat' for task %q", line, name)
		}
		row := make([]float64, len(tr.FeatureNames))
		for j := range row {
			v, err := strconv.ParseFloat(fields[2+j], 64)
			if err != nil {
				return fmt.Errorf("trace: line %d: bad feature value %q: %w", line, fields[2+j], err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("trace: line %d: non-finite feature value %q", line, fields[2+j])
			}
			row[j] = v
		}
		p.rows[i] = row
	}
	return nil
}

// WriteFile writes the trace to path, creating parent directories.
func WriteFile(path string, tr *Trace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads one trace file.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// WriteSet writes one file per trace into dir, named
// <app>.p<process>.trace, and returns the file names written.
func WriteSet(dir string, traces []*Trace) ([]string, error) {
	names := make([]string, 0, len(traces))
	for _, tr := range traces {
		name := fmt.Sprintf("%s.p%03d.trace", strings.ToLower(tr.App), tr.Process)
		if err := WriteFile(filepath.Join(dir, name), tr); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

// ReadSet reads every *.trace file in dir, sorted by name.
func ReadSet(dir string) ([]*Trace, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	if len(matches) == 0 {
		return nil, fmt.Errorf("trace: no *.trace files in %s", dir)
	}
	traces := make([]*Trace, 0, len(matches))
	for _, m := range matches {
		tr, err := ReadFile(m)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	return traces, nil
}
