package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"transched"
	"transched/internal/core"
	"transched/internal/trace"
)

// referenceDigest is the digest the field hash replaced: FNV-64a over
// the canonical trace.Write re-encoding plus the options. It is the
// oracle of the equivalence tests: Digest must equate exactly the
// (trace, options) pairs it equates, and fail exactly where it fails.
func referenceDigest(tr *trace.Trace, opts transched.SolveOptions) (string, error) {
	h := fnv.New64a()
	if err := trace.Write(h, tr); err != nil {
		return "", err
	}
	fmt.Fprintf(h, "\x00opts %.17g %d %s", opts.CapacityMultiplier, opts.BatchSize, opts.Heuristic)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// digestCase is one (trace, options) input of the equivalence tests.
type digestCase struct {
	name string
	tr   *trace.Trace
	opts transched.SolveOptions
}

// digestCases builds traces that the canonical encoding equates (the
// same instance in canonical and messy spellings, nil and empty feature
// lists) and ones it separates (task order, a name boundary moved
// between fields, -0 against 0, app, process, feature rows), each under
// several option variants.
func digestCases(t *testing.T) []digestCase {
	annotated := "# transched trace v1\n#! features x y\napp HF\ntask a 1 2 3\n#! feat a 4 5\ntask b 1 2 3\n"
	texts := []struct{ name, text string }{
		{"canonical", canonicalText},
		{"messy", messyText},
		{"crlf", strings.ReplaceAll(canonicalText, "\n", "\r\n")},
		{"no-newline", strings.TrimSuffix(canonicalText, "\n")},
		{"process", strings.Replace(canonicalText, "process 0", "process 1", 1)},
		{"no-app", strings.Replace(canonicalText, "app HF\n", "", 1)},
		{"app", strings.Replace(canonicalText, "app HF", "app CCSD", 1)},
		{"neg-zero", canonicalText + "task z -0 0 0\n"},
		{"pos-zero", canonicalText + "task z 0 0 0\n"},
		{"pos-zero2", canonicalText + "task z 0e5 0.0 0\n"},
		{"boundary1", "# transched trace v1\ntask ab 1 1 1\ntask c 1 1 1\n"},
		{"boundary2", "# transched trace v1\ntask a 1 1 1\ntask bc 1 1 1\n"},
		{"annotated", annotated},
		{"annotated2", strings.Replace(annotated, "#! feat a 4 5", "#! feat a 4.0 5e0", 1)},
		{"unfeat", strings.Replace(annotated, "#! feat a 4 5\n", "", 1)},
		{"other-row", strings.Replace(annotated, "#! feat a 4 5\ntask b 1 2 3\n", "task b 1 2 3\n#! feat b 4 5\n", 1)},
		{"plain", "# transched trace v1\napp HF\ntask a 1 2 3\ntask b 1 2 3\n"},
		{"tiny", "# transched trace v1\ntask a 5e-324 1e308 0\n"},
		{"tiny2", "# transched trace v1\ntask a 4.9e-324 1.0e308 0\n"},
	}
	optVariants := []transched.SolveOptions{
		{CapacityMultiplier: 1.5},
		{CapacityMultiplier: 1.5000000000000002},
		{CapacityMultiplier: 2},
		{CapacityMultiplier: 1.5, Heuristic: "OOLCMR"},
		{CapacityMultiplier: 1.5, BatchSize: 8},
		{CapacityMultiplier: 1.5, BatchSize: 8, Heuristic: "OOLCMR"},
	}
	var cases []digestCase
	for _, x := range texts {
		tr, err := trace.Parse(x.text)
		if err != nil {
			t.Fatalf("%s: %v", x.name, err)
		}
		for _, opts := range optVariants {
			cases = append(cases, digestCase{x.name, tr, opts})
		}
	}
	swapped := mustRead(t, canonicalText)
	swapped.Tasks[0], swapped.Tasks[1] = swapped.Tasks[1], swapped.Tasks[0]
	emptyCols := mustRead(t, canonicalText)
	emptyCols.FeatureNames = []string{}
	nilRows := mustRead(t, annotated)
	nilRows.Features = [][]float64{nil, nil}
	unrowed := mustRead(t, annotated)
	unrowed.Features = nil
	opts := transched.SolveOptions{CapacityMultiplier: 1.5}
	return append(cases,
		digestCase{"swapped", swapped, opts},
		digestCase{"empty-feature-names", emptyCols, opts},
		digestCase{"nil-rows", nilRows, opts},
		digestCase{"no-rows", unrowed, opts},
		digestCase{"generated", mustRead(t, genTraceText(t, 5, 40)), opts},
		digestCase{"generated2", mustRead(t, genTraceText(t, 6, 40)), opts},
	)
}

// TestDigestEquivalentToReference: over every pair of cases, Digest
// returns equal digests exactly when the canonical-encoding digest did.
func TestDigestEquivalentToReference(t *testing.T) {
	cases := digestCases(t)
	got := make([]string, len(cases))
	want := make([]string, len(cases))
	for i, c := range cases {
		got[i] = mustDigest(t, c.tr, c.opts)
		var err error
		if want[i], err = referenceDigest(c.tr, c.opts); err != nil {
			t.Fatal(err)
		}
	}
	equal, separate := 0, 0
	for i := range cases {
		for j := i + 1; j < len(cases); j++ {
			if (got[i] == got[j]) != (want[i] == want[j]) {
				t.Errorf("%s %+v vs %s %+v: digests equal %v, reference equal %v",
					cases[i].name, cases[i].opts, cases[j].name, cases[j].opts,
					got[i] == got[j], want[i] == want[j])
			}
			if want[i] == want[j] {
				equal++
			} else {
				separate++
			}
		}
	}
	// The cases must exercise both sides of the equivalence.
	if equal < 10 || separate < 10 {
		t.Errorf("weak case set: %d equal pairs, %d separate pairs", equal, separate)
	}
}

// TestDigestRejectsWhatWriteRejects: Digest fails exactly on the traces
// the canonical encoding could not represent.
func TestDigestRejectsWhatWriteRejects(t *testing.T) {
	opts := transched.SolveOptions{CapacityMultiplier: 1.5}
	bad := []*trace.Trace{
		{App: "H F"},
		{Tasks: []core.Task{{Name: "a b", Comm: 1}}},
		{Tasks: []core.Task{{Comm: 1}}},
		{Tasks: []core.Task{{Name: "a", Comm: 1}, {Name: "a", Comm: 2}}},
		{Tasks: []core.Task{{Name: "a", Comm: math.NaN()}}},
		{Tasks: []core.Task{{Name: "a", Comm: -1}}},
		{Tasks: []core.Task{{Name: "a"}}, Features: [][]float64{{1}}},
		{Tasks: []core.Task{{Name: "a"}}, FeatureNames: []string{"x"}, Features: [][]float64{{1, 2}}},
	}
	for _, tr := range bad {
		_, err := Digest(tr, opts)
		_, refErr := referenceDigest(tr, opts)
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Errorf("%+v: Digest error %v, reference error %v", tr, err, refErr)
		}
	}
}

// FuzzDigestMatchesReference: for any two inputs that parse, under any
// two option sets parseRequest could produce, the digests are equal
// exactly when the reference digests are.
func FuzzDigestMatchesReference(f *testing.F) {
	f.Add([]byte(canonicalText), []byte(messyText), 1.5, 1.5, 0, 0, "", "")
	f.Add([]byte(canonicalText), []byte(canonicalText), 1.5, 2.0, 0, 8, "OOLCMR", "")
	f.Add([]byte("# transched trace v1\ntask ab 1 1 1\ntask c 1 1 1\n"),
		[]byte("# transched trace v1\ntask a 1 1 1\ntask bc 1 1 1\n"), 1.5, 1.5, 0, 0, "", "")
	f.Add([]byte("# transched trace v1\ntask a 0 0 0\n"), []byte("# transched trace v1\ntask a -0 0 0\n"), 1.0, 1.0, 1, 1, "x", "x")
	f.Fuzz(func(t *testing.T, a, b []byte, capA, capB float64, batchA, batchB int, hA, hB string) {
		ta, errA := trace.Parse(string(a))
		tb, errB := trace.Parse(string(b))
		if errA != nil || errB != nil || math.IsNaN(capA) || math.IsNaN(capB) {
			return // parseRequest rejects these before any digest
		}
		oa := transched.SolveOptions{CapacityMultiplier: capA, BatchSize: batchA, Heuristic: hA}
		ob := transched.SolveOptions{CapacityMultiplier: capB, BatchSize: batchB, Heuristic: hB}
		da, db := mustDigest(t, ta, oa), mustDigest(t, tb, ob)
		ra, err := referenceDigest(ta, oa)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := referenceDigest(tb, ob)
		if err != nil {
			t.Fatal(err)
		}
		if (da == db) != (ra == rb) {
			t.Fatalf("digests equal %v, reference equal %v\na: %q %+v\nb: %q %+v", da == db, ra == rb, a, oa, b, ob)
		}
	})
}
