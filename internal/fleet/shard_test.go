package fleet

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestGenerateRangeMatchesGenerate: a shard's slice of the index range
// must equal the same slice of a full generation — the property that
// makes contiguous shards independently reproducible.
func TestGenerateRangeMatchesGenerate(t *testing.T) {
	gen, err := NewGenerator(GeneratorConfig{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	full := gen.Generate(20)
	for _, r := range [][2]int{{0, 20}, {0, 7}, {7, 13}, {13, 20}, {19, 20}, {5, 5}} {
		lo, hi := r[0], r[1]
		part := gen.GenerateRange(lo, hi)
		if len(part) != hi-lo {
			t.Fatalf("GenerateRange(%d,%d) yielded %d scenarios", lo, hi, len(part))
		}
		for i, s := range part {
			if fingerprint(s) != fingerprint(full[lo+i]) {
				t.Errorf("GenerateRange(%d,%d)[%d] != Generate(20)[%d]", lo, hi, i, lo+i)
			}
		}
	}
	if got := gen.GenerateRange(-3, -1); len(got) != 0 {
		t.Errorf("GenerateRange(-3,-1) yielded %d scenarios, want 0", len(got))
	}
}

// TestShardRangePartitions: for any (total, count), the shard ranges must
// cover [0, total) contiguously with sizes differing by at most one.
func TestShardRangePartitions(t *testing.T) {
	for _, total := range []int{1, 2, 5, 7, 16, 64, 100} {
		for count := 1; count <= 6; count++ {
			next, minSz, maxSz := 0, total, 0
			for i := 0; i < count; i++ {
				lo, hi := ShardRange(total, i, count)
				if lo != next {
					t.Fatalf("ShardRange(%d,%d,%d) = [%d,%d), want lo %d", total, i, count, lo, hi, next)
				}
				sz := hi - lo
				if sz < minSz {
					minSz = sz
				}
				if sz > maxSz {
					maxSz = sz
				}
				next = hi
			}
			if next != total {
				t.Fatalf("shards of %d/%d cover [0,%d), want [0,%d)", total, count, next, total)
			}
			if count <= total && maxSz-minSz > 1 {
				t.Errorf("shards of %d/%d unbalanced: sizes span [%d,%d]", total, count, minSz, maxSz)
			}
		}
	}
}

// TestShardEquivalenceProperty is the distributed layer's core contract:
// across randomized seeds, fleet sizes, shard splits (1-5 shards with
// uneven boundaries) and worker counts, running shards in separate
// runners, round-tripping each through the shard stream encoding, and
// merging must reproduce the single-process report and results
// byte-for-byte (compared via JSON, so every exported field — including
// the pooled Latencies — participates).
func TestShardEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~60 scenarios")
	}
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 3; trial++ {
		cfg := GeneratorConfig{Seed: rng.Uint64()}
		n := 6 + rng.Intn(9) // 6..14 scenarios

		singleRep, singleRes, err := Run(cfg, n, 1+rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}

		// Random uneven split into 1-5 contiguous shards.
		count := 1 + rng.Intn(5)
		if count > n {
			count = n
		}
		cuts := map[int]bool{0: true, n: true}
		for len(cuts) < count+1 {
			cuts[1+rng.Intn(n-1)] = true
		}
		bounds := make([]int, 0, len(cuts))
		for c := range cuts {
			bounds = append(bounds, c)
		}
		sortInts(bounds)

		gen, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var shards []ShardResult
		for i := 0; i+1 < len(bounds); i++ {
			lo, hi := bounds[i], bounds[i+1]
			runner := &Runner{Workers: 1 + rng.Intn(4)}
			s := ShardResult{
				FormatVersion: ShardFormatVersion,
				Config:        cfg,
				Total:         n,
				Lo:            lo,
				Hi:            hi,
				Results:       runner.Run(gen.GenerateRange(lo, hi)),
			}
			// Round-trip through the stream encoding: merged results must
			// be built from what a reader decodes, not from in-memory state.
			back, err := ReadShard(bytes.NewReader(writeStream(t, s, false)))
			if err != nil {
				t.Fatalf("trial %d: ReadShard [%d,%d): %v", trial, lo, hi, err)
			}
			shards = append(shards, back)
		}
		rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })

		mergedRep, mergedRes, err := Merge(shards...)
		if err != nil {
			t.Fatalf("trial %d (seed %d, n %d, %d shards): %v", trial, cfg.Seed, n, len(shards), err)
		}
		wantRep, _ := json.Marshal(singleRep)
		gotRep, _ := json.Marshal(mergedRep)
		if !bytes.Equal(wantRep, gotRep) {
			t.Errorf("trial %d (seed %d, n %d, bounds %v): merged report != single-process report\nsingle: %s\nmerged: %s",
				trial, cfg.Seed, n, bounds, wantRep, gotRep)
		}
		wantRes, _ := json.Marshal(singleRes)
		gotRes, _ := json.Marshal(mergedRes)
		if !bytes.Equal(wantRes, gotRes) {
			t.Errorf("trial %d (seed %d, n %d, bounds %v): merged results != single-process results",
				trial, cfg.Seed, n, bounds)
		}
	}
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// fakeShard fabricates a structurally valid shard without running any
// simulations: IDs and seeds follow the real derivation, so only the
// aspect a test deliberately corrupts is wrong.
func fakeShard(cfg GeneratorConfig, total, lo, hi int) ShardResult {
	results := make([]Result, 0, hi-lo)
	for id := lo; id < hi; id++ {
		results = append(results, Result{
			ID:       id,
			Seed:     scenarioSeed(cfg.Seed, id),
			Class:    ClassSteady,
			Platform: "odroid-xu3",
			Policy:   "heuristic",
		})
	}
	return ShardResult{
		FormatVersion: ShardFormatVersion,
		Config:        cfg,
		Total:         total,
		Lo:            lo,
		Hi:            hi,
		Results:       results,
	}
}

// TestMergeRejections: every way shards can fail to describe one fleet
// must produce a clear error naming the problem.
func TestMergeRejections(t *testing.T) {
	cfg := GeneratorConfig{Seed: 5}
	otherSeed := GeneratorConfig{Seed: 6}
	otherCfg := GeneratorConfig{Seed: 5, Platforms: []string{"odroid-xu3"}}

	tamperedSeed := fakeShard(cfg, 8, 4, 8)
	tamperedSeed.Results[0].Seed++

	cases := []struct {
		name    string
		shards  []ShardResult
		wantErr string
	}{
		{"no shards", nil, "no shards"},
		{"gap at start", []ShardResult{fakeShard(cfg, 8, 2, 8)}, "gap"},
		{"gap in middle", []ShardResult{fakeShard(cfg, 8, 0, 3), fakeShard(cfg, 8, 5, 8)}, "gap"},
		{"gap at end", []ShardResult{fakeShard(cfg, 8, 0, 6)}, "gap"},
		{"overlap", []ShardResult{fakeShard(cfg, 8, 0, 5), fakeShard(cfg, 8, 3, 8)}, "overlap"},
		{"duplicate shard", []ShardResult{fakeShard(cfg, 8, 0, 8), fakeShard(cfg, 8, 0, 8)}, "overlap"},
		{"master seed mismatch", []ShardResult{fakeShard(cfg, 8, 0, 4), fakeShard(otherSeed, 8, 4, 8)}, "seed mismatch"},
		{"config mismatch", []ShardResult{fakeShard(cfg, 8, 0, 4), fakeShard(otherCfg, 8, 4, 8)}, "config mismatch"},
		{"total mismatch", []ShardResult{fakeShard(cfg, 8, 0, 4), fakeShard(cfg, 12, 4, 12)}, "fleet-size mismatch"},
		{"tampered result seed", []ShardResult{fakeShard(cfg, 8, 0, 4), tamperedSeed}, "does not derive"},
	}
	for _, tc := range cases {
		_, _, err := Merge(tc.shards...)
		if err == nil {
			t.Errorf("%s: merge accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}

	// The valid counterpart of the cases above must merge.
	if _, res, err := Merge(fakeShard(cfg, 8, 4, 8), fakeShard(cfg, 8, 0, 4)); err != nil {
		t.Errorf("valid out-of-order shards rejected: %v", err)
	} else if len(res) != 8 || res[0].ID != 0 || res[7].ID != 7 {
		t.Errorf("merged results not restored to scenario order: %d results", len(res))
	}
}

// TestShardValidate covers the consistency checks a reader runs before
// trusting a shard file.
func TestShardValidate(t *testing.T) {
	cfg := GeneratorConfig{Seed: 9}

	badVersion := fakeShard(cfg, 4, 0, 4)
	badVersion.FormatVersion = ShardFormatVersion + 1

	badRange := fakeShard(cfg, 4, 0, 4)
	badRange.Hi = 5

	badCount := fakeShard(cfg, 4, 0, 4)
	badCount.Results = badCount.Results[:3]

	badOrder := fakeShard(cfg, 4, 0, 4)
	badOrder.Results[1], badOrder.Results[2] = badOrder.Results[2], badOrder.Results[1]

	cases := []struct {
		name    string
		shard   ShardResult
		wantErr string
	}{
		{"future format version", badVersion, "format version"},
		{"range outside fleet", badRange, "outside fleet"},
		{"missing results", badCount, "carries 3 results"},
		{"out-of-order results", badOrder, "scenario order"},
	}
	for _, tc := range cases {
		err := tc.shard.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
		if _, err := ReadShard(bytes.NewReader(rawStream(tc.shard))); err == nil {
			t.Errorf("%s: ReadShard accepted what Validate rejects", tc.name)
		}
	}

	if err := fakeShard(cfg, 4, 0, 4).Validate(); err != nil {
		t.Errorf("valid shard rejected: %v", err)
	}
	if _, err := ReadShard(strings.NewReader("{not json")); err == nil {
		t.Error("ReadShard accepted malformed JSON")
	}

	// A classic indented-JSON shard document, as older releases wrote it,
	// is refused with the one not-a-stream error.
	var classic bytes.Buffer
	enc := json.NewEncoder(&classic)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fakeShard(cfg, 4, 0, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShard(&classic); err == nil || !strings.Contains(err.Error(), "no longer read") {
		t.Errorf("classic shard error = %v, want the not-a-stream error", err)
	}
}

// rawStream encodes s as a stream without the writer's validation, so a
// test can put a shard that Validate rejects on the wire.
func rawStream(s ShardResult) []byte {
	hdr, _ := json.Marshal(StreamHeader{Stream: streamMagic, FormatVersion: s.FormatVersion,
		Config: s.Config, Total: s.Total, Lo: s.Lo, Hi: s.Hi})
	out := append(hdr, '\n')
	for _, r := range s.Results {
		rec, _ := json.Marshal(r)
		out = append(append(out, rec...), '\n')
	}
	return out
}

// TestReadShardHugeHeaders: a lone header line claiming an enormous fleet
// must fail with an error — from ReadShard and from Merge — not panic or
// run out of memory sizing a slice from its claim.
func TestReadShardHugeHeaders(t *testing.T) {
	for _, rng := range [][3]int{
		{1_000_000_000_000, 0, 1_000_000_000_000},
		{100_000_000, 0, 100_000_000},
		{1_000_000_000_000, 0, 0},
	} {
		total, lo, hi := rng[0], rng[1], rng[2]
		raw := fmt.Sprintf(`{"stream":"%s","formatVersion":%d,"config":{"seed":1},"total":%d,"lo":%d,"hi":%d}`+"\n",
			streamMagic, ShardFormatVersion, total, lo, hi)
		s, err := ReadShard(strings.NewReader(raw))
		if err != nil {
			if !strings.Contains(err.Error(), "incomplete") {
				t.Errorf("[%d,%d) of %d: ReadShard error %q, want incompleteness complaint", lo, hi, total, err)
			}
			continue
		}
		if _, _, err := Merge(s); err == nil || !strings.Contains(err.Error(), "coverage gap") {
			t.Errorf("[%d,%d) of %d: Merge error = %v, want coverage gap", lo, hi, total, err)
		}
	}
}

// TestReadShardFileCorrupt: damaged shard files must fail loudly with the
// file path in the error, never decode to a partial or empty shard.
func TestReadShardFileCorrupt(t *testing.T) {
	dir := t.TempDir()
	shard := fakeShard(GeneratorConfig{Seed: 5}, 8, 0, 4)

	// A gzipped stream cut off mid-file: compress a valid stream, keep half.
	truncated := filepath.Join(dir, "truncated.ndjson.gz")
	data := gzipBytes(t, writeStream(t, shard, false))
	if err := os.WriteFile(truncated, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShardFile(truncated); err == nil {
		t.Error("truncated gzip shard accepted")
	} else if !strings.Contains(err.Error(), truncated) {
		t.Errorf("truncated-gzip error %q does not name the file", err)
	}

	// A stream file whose header is valid but whose body is garbage.
	garbled := filepath.Join(dir, "garbled.ndjson")
	var buf bytes.Buffer
	if _, err := NewStreamWriter(&buf, StreamHeader{Config: GeneratorConfig{Seed: 5}, Total: 8, Lo: 0, Hi: 4}); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("this is not a result record\n")
	if err := os.WriteFile(garbled, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShardFile(garbled); err == nil {
		t.Error("stream with garbage body accepted")
	} else if !strings.Contains(err.Error(), garbled) {
		t.Errorf("garbled-stream error %q does not name the file", err)
	}

	// A missing file: the error must carry the path too.
	missing := filepath.Join(dir, "no-such-shard.json")
	if _, err := ReadShardFile(missing); err == nil {
		t.Error("missing shard file accepted")
	} else if !strings.Contains(err.Error(), missing) {
		t.Errorf("missing-file error %q does not name the file", err)
	}
}

// TestResumeShardBounds covers ResumeShard argument validation: a bad
// request fails before the stream file is created.
func TestResumeShardBounds(t *testing.T) {
	cfg := GeneratorConfig{Seed: 1}
	path := filepath.Join(t.TempDir(), "shard.ndjson")
	cases := []struct {
		name                string
		cfg                 GeneratorConfig
		total, index, count int
	}{
		{"zero total", cfg, 0, 0, 1},
		{"index >= count", cfg, 4, 2, 2},
		{"negative index", cfg, 4, -1, 2},
		{"zero count", cfg, 4, 0, 0},
		{"invalid generator config", GeneratorConfig{Platforms: []string{"nope"}}, 4, 0, 2},
	}
	for _, tc := range cases {
		if _, err := ResumeShard(path, tc.cfg, tc.total, tc.index, tc.count, 1); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("rejected requests left a stream file behind (stat: %v)", err)
	}
}

// FuzzReadShard: ReadShard never panics on arbitrary bytes, plain or
// gzipped. What it accepts validates and merges without panicking, and
// gzipping the input does not change the verdict. The committed corpus
// holds huge-range headers, a classic JSON shard, a torn gzip stream, CRLF
// line endings and a trailing blank line.
func FuzzReadShard(f *testing.F) {
	f.Add(rawStream(fakeShard(GeneratorConfig{Seed: 5}, 1, 0, 1)))
	// One writer, reset per input: a fresh gzip.Writer costs most of an
	// exec, and the fuzzer runs inputs one at a time.
	var zbuf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&zbuf, gzip.NoCompression)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadShard(bytes.NewReader(data))
		if err == nil {
			if verr := s.Validate(); verr != nil {
				t.Fatalf("ReadShard accepted a shard Validate rejects: %v", verr)
			}
			Merge(s) // full coverage or not, it must return, not panic
		}
		zbuf.Reset()
		zw.Reset(&zbuf)
		zw.Write(data)
		zw.Close()
		z, zerr := ReadShard(&zbuf)
		if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
			return // already gzip: compressing it again hides the stream
		}
		if (err == nil) != (zerr == nil) {
			t.Fatalf("plain verdict %v, gzipped verdict %v", err, zerr)
		}
		if err == nil && !reflect.DeepEqual(s, z) {
			t.Fatal("gzipped input read back a different shard")
		}
	})
}
