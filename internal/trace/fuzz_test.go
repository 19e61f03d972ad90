package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzTraceRead asserts the codec's two safety properties on arbitrary
// bytes, the properties the serving layer relies on when it feeds
// network payloads straight into Read:
//
//  1. Read never panics, whatever the input;
//  2. an accepted trace round-trips: Write re-encodes it without error
//     (everything Read accepts is representable, so Validate passes)
//     and Read parses the re-encoding back to an identical trace. The
//     parsed fields are therefore a sound canonical form for content
//     addressing: serve.Digest hashes them, not a re-encoding.
func FuzzTraceRead(f *testing.F) {
	for _, in := range traceReadSeeds {
		f.Add([]byte(in))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data)) // must never panic
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("Read accepted a trace Write rejects: %v\ninput: %q", err, data)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading Write output failed: %v\nencoded: %q", err, buf.Bytes())
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("round trip changed the trace:\nfirst:  %+v\nsecond: %+v\nencoded: %q", tr, back, buf.Bytes())
		}
		// Old-reader compatibility: a v1 reader that predates feature
		// annotations sees `#!` lines as comments. Simulate one by
		// stripping them from the canonical re-encoding — the stripped
		// text must still parse, to the same tasks, with no annotations.
		stripped := stripAnnotations(buf.Bytes())
		old, err := Read(bytes.NewReader(stripped))
		if err != nil {
			t.Fatalf("stripped re-encoding failed to parse: %v\nstripped: %q", err, stripped)
		}
		if !reflect.DeepEqual(old.Tasks, tr.Tasks) || old.App != tr.App || old.Process != tr.Process {
			t.Fatalf("stripped re-encoding changed the tasks:\nannotated: %+v\nstripped:  %+v", tr, old)
		}
		if old.FeatureNames != nil || old.Features != nil {
			t.Fatalf("stripped re-encoding still carries annotations: %+v", old)
		}
	})
}

// traceReadSeeds seed FuzzTraceRead and FuzzReadMatchesReference.
var traceReadSeeds = []string{
	"# transched trace v1\napp HF\nprocess 3\ntask a 1.5 2.25 1.5\ntask b 0.125 4 100\n",
	"# transched trace v1\n\n# comment\nprocess 0\ntask a 1 2 3\n",
	"# transched trace v1\napp CCSD\nprocess -7\ntask t0 0 0 0\n",
	"# transched trace v1\ntask a NaN 1 1\n",
	"# transched trace v1\ntask a 1 +Inf 1\n",
	"# transched trace v1\ntask dup 1 1 1\ntask dup 2 2 2\n",
	"# transched trace v1\napp x\napp y\nprocess 1\nprocess 2\n",
	"no magic\n",
	"# transched trace v1\ntask a 1e308 1e-308 5e-324\n",
	"",
	// Feature-annotated traces: the `#!` lines are comments to a
	// plain v1 reader and structured annotations to this one.
	"# transched trace v1\n#! features bytes mem flops mem_traffic\napp HF\nprocess 0\ntask a 1 2 3\n#! feat a 1e6 3 2e9 0\n",
	"# transched trace v1\n#! features x\ntask a 1 2 3\ntask b 4 5 6\n#! feat b 0.5\n",
	"# transched trace v1\n#! features x\n#! features y\n",
	"# transched trace v1\n#! feat a 1\ntask a 1 1 1\n",
	"# transched trace v1\n#! features x y\ntask a 1 1 1\n#! feat a 1\n",
	"# transched trace v1\n#! features x\ntask a 1 1 1\n#! feat a NaN\n",
	"# transched trace v1\n#! unknown directive skipped\ntask a 1 1 1\n",
}

func stripAnnotations(encoded []byte) []byte {
	var out bytes.Buffer
	for _, line := range bytes.SplitAfter(encoded, []byte("\n")) {
		if bytes.HasPrefix(bytes.TrimSpace(line), []byte("#!")) {
			continue
		}
		out.Write(line)
	}
	return out.Bytes()
}
