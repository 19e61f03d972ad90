package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"transched/internal/core"
)

// referenceRead is the bufio.Scanner reader Parse replaced, kept as the
// oracle of the differential tests: Read must accept exactly what it
// accepted, with the same trace, and reject the rest with the same
// error text.
func referenceRead(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	tr := &Trace{}
	line := 0
	sawMagic := false
	names := make(map[string]int)
	feats := make(map[string][]float64)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if line == 1 {
			if text != magic {
				return nil, fmt.Errorf("trace: line 1: missing header %q", magic)
			}
			sawMagic = true
			continue
		}
		if strings.HasPrefix(text, "#!") {
			if err := referenceAnnotation(tr, names, feats, text, line); err != nil {
				return nil, err
			}
			continue
		}
		if strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "app":
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace: line %d: want 'app <name>'", line)
			}
			tr.App = fields[1]
		case "process":
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace: line %d: want 'process <rank>'", line)
			}
			p, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad process rank: %w", line, err)
			}
			tr.Process = p
		case "task":
			if len(fields) != 5 {
				return nil, fmt.Errorf("trace: line %d: want 'task <name> <comm> <comp> <mem>'", line)
			}
			var vals [3]float64
			for i := 0; i < 3; i++ {
				v, err := strconv.ParseFloat(fields[2+i], 64)
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: bad number %q: %w", line, fields[2+i], err)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("trace: line %d: non-finite value %q", line, fields[2+i])
				}
				vals[i] = v
			}
			if _, dup := names[fields[1]]; dup {
				return nil, fmt.Errorf("trace: line %d: duplicate task name %q", line, fields[1])
			}
			names[fields[1]] = len(tr.Tasks)
			t := core.Task{Name: fields[1], Comm: vals[0], Comp: vals[1], Mem: vals[2]}
			if err := t.Validate(); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			tr.Tasks = append(tr.Tasks, t)
		default:
			return nil, fmt.Errorf("trace: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawMagic {
		return nil, fmt.Errorf("trace: empty input")
	}
	if tr.FeatureNames != nil {
		tr.Features = make([][]float64, len(tr.Tasks))
		for name, row := range feats {
			tr.Features[names[name]] = row
		}
	}
	return tr, nil
}

// referenceAnnotation is referenceRead's `#!` line handler.
func referenceAnnotation(tr *Trace, names map[string]int, feats map[string][]float64, text string, line int) error {
	fields := strings.Fields(text[len("#!"):])
	if len(fields) == 0 {
		return nil
	}
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
		tr.FeatureNames = cols
	case annFeat:
		if tr.FeatureNames == nil {
			return fmt.Errorf("trace: line %d: '#! feat' before '#! features' header", line)
		}
		if len(fields) != 2+len(tr.FeatureNames) {
			return fmt.Errorf("trace: line %d: want '#! feat <task> %d values', got %d",
				line, len(tr.FeatureNames), len(fields)-2)
		}
		name := fields[1]
		if _, ok := names[name]; !ok {
			return fmt.Errorf("trace: line %d: '#! feat' for unknown task %q", line, name)
		}
		if _, dup := feats[name]; dup {
			return fmt.Errorf("trace: line %d: duplicate '#! feat' for task %q", line, name)
		}
		row := make([]float64, len(tr.FeatureNames))
		for i := range row {
			v, err := strconv.ParseFloat(fields[2+i], 64)
			if err != nil {
				return fmt.Errorf("trace: line %d: bad feature value %q: %w", line, fields[2+i], err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("trace: line %d: non-finite feature value %q", line, fields[2+i])
			}
			row[i] = v
		}
		feats[name] = row
	}
	return nil
}

// matchReference fails t unless Read and referenceRead agree on data:
// the same trace, or the same error text.
func matchReference(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := Read(bytes.NewReader(data))
	want, wantErr := referenceRead(bytes.NewReader(data))
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("Read error %v, reference error %v\ninput: %.200q", gotErr, wantErr, data)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("Read error %q, reference error %q\ninput: %.200q", gotErr, wantErr, data)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("Read and the reference disagree:\nRead:      %+v\nreference: %+v\ninput: %.200q", got, want, data)
	}
}

// referenceCases are inputs whose line splitting, trimming and field
// splitting differ from the plain canonical form: CRLF line ends, a
// missing final newline, Unicode whitespace (NBSP, NEL, U+2003, U+3000)
// between and around fields, invalid UTF-8, other ASCII whitespace, and
// feature lines wider than Parse's fixed field array.
var referenceCases = []string{
	"# transched trace v1\r\napp HF\r\nprocess 3\r\ntask a 1.5 2.25 1.5\r\ntask b 0.125 4 100\r\n",
	"# transched trace v1\napp HF\nprocess 3\ntask a 1 2 3",
	"# transched trace v1\ntask a 1 2 3\n",
	"# transched trace v1\ntask a 1 2 3\n",
	"# transched trace v1\ntask a 1 2 3\u0085\ntask b  4 5 6　\n",
	" # transched trace v1 \ntask a 1 2 3\n",
	"# transched trace v1\napp H F\n",
	"# transched trace v1\napp \xff\xfe\ntask \xc3 1 2 3\n",
	"# transched trace v1\v\ntask\va\f1\t2 3\r\r\n",
	"# transched trace v1\n#! features a b c d e f g h i j\ntask t 1 1 1\n#! feat t 1 2 3 4 5 6 7 8 9 10\n",
	"# transched trace v1\n#! features a b c d e f g h i j\ntask t 1 1 1\n#! feat t 1 2 3 4 5 6 7 8 9\n",
	"# transched trace v1\n#! features x y\ntask t 1 1 1\n#! feat t 1 2\n",
	"# transched trace v1\ntask a 1 2 3 4 5 6 7 8 9 10 11\n",
	"# transched trace v1\n#! features x\n#! feat a 1\n",
	"# transched trace v1\n#! features x\ntask a 1 1 1\n#! feat a 1\n#! feat a 2\n",
	"# transched trace v1\n#! features x\ntask a 1 1 1\n#! feat a x\n",
	"# transched trace v1\n#! features x x\n",
	"# transched trace v1\n#! features\n",
	"# transched trace v1\n#!\n#! other stuff\ntask a 1 1 1\n",
	"# transched trace v1\n#! features x\n",
	"# transched trace v1\n",
	"\n# transched trace v1\ntask a 1 1 1\n",
	"\nfoo\n",
	"\r\n\r\n",
	"# transched trace v1\ntask a -0 0 1e-320\ntask b 0x1p-2 1_0 .5\n",
	"# transched trace v1\ntask a 1 1 -1\n",
	"# transched trace v1\nprocess 99999999999999999999\n",
	"# transched trace v1\nprocess -0\napp\n",
	"# transched trace v1\ntask a 1 1 1\ntask b 1 1 1\ntask a 1 1 1\n",
	"#transched trace v1\n",
	"  # transched trace v1  \n\n\ntask a 1 1 1\n\n",
}

func TestReadMatchesReferenceCases(t *testing.T) {
	for _, in := range referenceCases {
		matchReference(t, []byte(in))
	}
}

// TestReadLineBound: the 16 MiB line bound sits where the Scanner put
// it, with and without a final newline: a line one byte shorter parses,
// a line at the bound fails with bufio.ErrTooLong.
func TestReadLineBound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 16 MiB inputs")
	}
	head := "# transched trace v1\n"
	for _, n := range []int{maxLine - 1, maxLine} {
		for _, tail := range []string{"", "\n", "\ntask a 1 1 1\n"} {
			data := make([]byte, 0, len(head)+n+len(tail))
			data = append(data, head...)
			data = append(data, '#')
			data = append(data, bytes.Repeat([]byte{'a'}, n-1)...)
			data = append(data, tail...)
			matchReference(t, data)
			_, err := Read(bytes.NewReader(data))
			if tooLong := err == bufio.ErrTooLong; tooLong != (n >= maxLine) {
				t.Errorf("line of %d bytes, tail %q: error %v", n, tail, err)
			}
		}
	}
}

// TestParseSharesText: Parse copies no names, and presizes so the task
// slice never grows.
func TestParseSharesText(t *testing.T) {
	text := "# transched trace v1\napp HF\ntask alpha 1 2 3\ntask beta 4 5 6\n"
	tr, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if i := strings.Index(text, "alpha"); !sameBytes(tr.Tasks[0].Name, text[i:i+len("alpha")]) {
		t.Error("task name is a copy, not a substring of the text")
	}
	if i := strings.Index(text, "HF"); !sameBytes(tr.App, text[i:i+2]) {
		t.Error("app name is a copy, not a substring of the text")
	}
	if lines := strings.Count(text, "\n") + 1; cap(tr.Tasks) > lines {
		t.Errorf("cap(Tasks) = %d exceeds the %d-line bound", cap(tr.Tasks), lines)
	}
}

func sameBytes(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// corpusSeeds returns the inputs of the checked-in corpus of the named
// fuzz target (testdata/fuzz/<name>, "go test fuzz v1" files of one
// []byte value each).
func corpusSeeds(t testing.TB, name string) [][]byte {
	dir := filepath.Join("testdata", "fuzz", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seeds [][]byte
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, val, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		if !ok || !strings.HasPrefix(val, "[]byte(") || !strings.HasSuffix(val, ")") {
			t.Fatalf("%s: not a one-value []byte corpus file", e.Name())
		}
		s, err := strconv.Unquote(val[len("[]byte(") : len(val)-1])
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzReadMatchesReference is the differential test of the one-pass
// reader: on arbitrary bytes, Read returns the trace referenceRead
// returns (reflect.DeepEqual), or an error with the same text.
func FuzzReadMatchesReference(f *testing.F) {
	for _, in := range traceReadSeeds {
		f.Add([]byte(in))
	}
	for _, in := range corpusSeeds(f, "FuzzTraceRead") {
		f.Add(in)
	}
	for _, in := range referenceCases {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		matchReference(t, data)
	})
}
