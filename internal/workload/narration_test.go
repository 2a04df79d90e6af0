package workload

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/emlrtm/emlrtm/internal/hw"
)

// update regenerates golden files instead of comparing against them:
//
//	go test ./internal/workload -run TestFig2NarrationGolden -update
//
// Only do this after deliberately changing what the manager narrates, and
// review the golden diff like code.
var update = flag.Bool("update", false, "rewrite golden files")

// TestFig2NarrationGolden pins every line the manager narrates through
// Logf over the Fig 2 timeline: plans, thermal alarms and actuation
// errors, with their formatting. Nothing else pins these bytes, and
// rtmsim prints exactly this stream.
func TestFig2NarrationGolden(t *testing.T) {
	var buf bytes.Buffer
	logf := func(format string, args ...any) {
		fmt.Fprintf(&buf, format, args...)
		buf.WriteByte('\n')
	}
	if _, _, _, err := Run(Fig2Scenario(), hw.FlagshipSoC(), 0.25, logf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "fig2_narration.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("narration drifted from %s%s\n(if the change is intended, regenerate with -update and review the diff)",
			path, firstLineDiff(want, got))
	}
}

// firstLineDiff locates the first differing line so a failure reads as a
// diff hunk rather than two multi-kilobyte blobs.
func firstLineDiff(want, got []byte) string {
	wantLines := bytes.Split(want, []byte("\n"))
	gotLines := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g []byte
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("\nfirst difference at line %d:\n  golden: %s\n  got:    %s", i+1, w, g)
		}
	}
	return ""
}
