package fleet

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
)

// A shard result stream is the one on-disk encoding of a ShardResult: one
// NDJSON header line followed by one line per completed scenario, in
// ascending scenario-index order, each flushed as it completes. ResumeShard
// is its only writer and StreamReader its only reader. A process killed at
// any point leaves a prefix of the stream on disk; ResumeShard replays that
// prefix and re-runs only the missing range. A complete stream converts
// losslessly into a ShardResult (ReadShard), so Merge and the golden report
// are untouched by how a shard was produced — in one go,
// crashed-and-resumed, or retried.

// streamMagic identifies a shard result stream. It is the value of the
// header's first JSON key, so the opening bytes of a stream file are
// constant and anything else is refused before it is parsed.
const streamMagic = "emlrtm-fleet-shard"

// streamPrefix is the byte prefix every stream file starts with:
// json.Marshal emits struct fields in declaration order and Stream is
// StreamHeader's first field.
const streamPrefix = `{"stream":"` + streamMagic + `"`

// StreamHeader is the first line of a shard result stream: everything a
// resuming or merging process needs to prove the records that follow
// belong to the run it was asked for. It mirrors the ShardResult header,
// plus the latency-dropping mode, which changes record bytes and so must
// match between the crashed and the resuming run.
type StreamHeader struct {
	Stream        string          `json:"stream"`
	FormatVersion int             `json:"formatVersion"`
	Config        GeneratorConfig `json:"config"`
	Total         int             `json:"total"`
	Lo            int             `json:"lo"`
	Hi            int             `json:"hi"` // exclusive
	NoLatencies   bool            `json:"noLatencies,omitempty"`
}

// validate checks internal consistency, mirroring ShardResult.Validate's
// header checks.
func (h StreamHeader) validate() error {
	if h.Stream != streamMagic {
		return fmt.Errorf("fleet: stream marker %q, want %q", h.Stream, streamMagic)
	}
	if h.FormatVersion != ShardFormatVersion {
		return fmt.Errorf("fleet: stream format version %d, want %d", h.FormatVersion, ShardFormatVersion)
	}
	if h.Total <= 0 {
		return fmt.Errorf("fleet: stream total %d must be positive", h.Total)
	}
	if h.Lo < 0 || h.Hi < h.Lo || h.Hi > h.Total {
		return fmt.Errorf("fleet: stream range [%d,%d) outside fleet [0,%d)", h.Lo, h.Hi, h.Total)
	}
	if _, err := resolvePolicies(h.Config.Policies); err != nil {
		return err
	}
	return nil
}

// matches reports whether two headers describe the same shard of the same
// run, using the same normalized-config comparison Merge applies across
// shards. It is the resume gate: a stream written under a different seed,
// config, range or latency mode must not be extended.
func (h StreamHeader) matches(want StreamHeader) error {
	switch {
	case h.FormatVersion != want.FormatVersion:
		return fmt.Errorf("fleet: stream format version %d, want %d", h.FormatVersion, want.FormatVersion)
	case h.Config.Seed != want.Config.Seed:
		return fmt.Errorf("fleet: stream seed mismatch: file has %d, run wants %d", h.Config.Seed, want.Config.Seed)
	case h.Total != want.Total || h.Lo != want.Lo || h.Hi != want.Hi:
		return fmt.Errorf("fleet: stream range mismatch: file covers [%d,%d) of %d, run wants [%d,%d) of %d",
			h.Lo, h.Hi, h.Total, want.Lo, want.Hi, want.Total)
	case h.NoLatencies != want.NoLatencies:
		return fmt.Errorf("fleet: stream latency mode mismatch: file noLatencies=%v, run wants %v (resume with the same -nolat setting)", h.NoLatencies, want.NoLatencies)
	case !reflect.DeepEqual(h.Config.normalized(), want.Config.normalized()):
		return fmt.Errorf("fleet: stream config mismatch: file was written with %+v, run wants %+v", h.Config, want.Config)
	}
	return nil
}

// StreamWriter appends completed results to a shard stream as NDJSON, one
// flushed line per record, in scenario-index order. It validates every
// record against the header the way shard readers do, so a stream can only
// ever contain records of the run its header declares.
//
// Crash model: every record is flushed through the bufio layer to the
// underlying writer before Append returns, so a *process* death (SIGKILL,
// panic, OOM kill) loses at most the partially written final line, which
// resume discards. Flushing does NOT fsync: on a whole-machine power loss
// the OS page cache can drop any number of "flushed" trailing records (the
// file simply ends earlier — resume re-runs them, so no corruption, just
// lost work). Callers who need bounded data loss across power failure set
// SetSyncEvery, which fsyncs the underlying file every n records.
type StreamWriter struct {
	w    *bufio.Writer
	hdr  StreamHeader
	pols []string
	next int
	err  error  // sticky: after a write error the stream is poisoned
	line []byte // record encoding buffer, reused across Appends

	sync      func() error // fsync of the underlying file, if it has one
	syncEvery int          // fsync cadence in records; 0 = never
	sinceSync int
}

// SetSyncEvery makes the writer fsync the underlying file after every n
// appended records (0, the default, never fsyncs — see the crash model
// above). It is a no-op when the underlying writer has no Sync method
// (e.g. a pipe or an in-memory buffer). Each fsync bounds power-loss data
// loss to the last n records at a real durability cost per sync; leave it
// off unless re-running lost scenarios after a power failure is more
// expensive than fsyncing through the run.
func (sw *StreamWriter) SetSyncEvery(n int) { sw.syncEvery = n }

// NewStreamWriter writes the header line to w and returns a writer
// expecting records hdr.Lo, hdr.Lo+1, … in order. The Stream marker and
// FormatVersion fields are filled in; the caller provides the run
// identity (Config, Total, Lo, Hi, NoLatencies).
func NewStreamWriter(w io.Writer, hdr StreamHeader) (*StreamWriter, error) {
	hdr.Stream = streamMagic
	hdr.FormatVersion = ShardFormatVersion
	if err := hdr.validate(); err != nil {
		return nil, err
	}
	sw := newStreamWriterAt(w, hdr, hdr.Lo)
	line, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	if _, err := sw.w.Write(append(line, '\n')); err != nil {
		return nil, err
	}
	if err := sw.w.Flush(); err != nil {
		return nil, err
	}
	return sw, nil
}

// newStreamWriterAt builds a writer for a stream whose header (and next-lo
// records) are already on disk — the resume path. hdr must already be
// validated.
func newStreamWriterAt(w io.Writer, hdr StreamHeader, next int) *StreamWriter {
	pols, _ := resolvePolicies(hdr.Config.Policies) // validated with hdr
	sw := &StreamWriter{w: bufio.NewWriter(w), hdr: hdr, pols: pols, next: next}
	if s, ok := w.(interface{ Sync() error }); ok {
		sw.sync = s.Sync
	}
	return sw
}

// Append writes one completed result and flushes it to the underlying
// writer, so the record survives the process being killed immediately
// after. Records must arrive in scenario-index order (Runner.OnResult
// delivers exactly that) and must belong to the header's run. The record
// line is json.Marshal's encoding of r, built by appendResult in a buffer
// the writer reuses.
func (sw *StreamWriter) Append(r Result) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.next >= sw.hdr.Hi {
		return fmt.Errorf("fleet: stream [%d,%d) is complete; cannot append scenario %d", sw.hdr.Lo, sw.hdr.Hi, r.ID)
	}
	if r.ID != sw.next {
		return fmt.Errorf("fleet: stream expects scenario %d next, got %d (records must be appended in scenario order)", sw.next, r.ID)
	}
	if err := validateResultAt(sw.hdr.Config.Seed, sw.pols, r, sw.next); err != nil {
		return err
	}
	line, err := appendResult(sw.line[:0], r)
	if err != nil {
		return err
	}
	sw.line = append(line, '\n')
	if _, err := sw.w.Write(sw.line); err != nil {
		sw.err = err
		return err
	}
	if err := sw.w.Flush(); err != nil {
		sw.err = err
		return err
	}
	if sw.syncEvery > 0 && sw.sync != nil {
		if sw.sinceSync++; sw.sinceSync >= sw.syncEvery {
			if err := sw.sync(); err != nil {
				sw.err = err
				return err
			}
			sw.sinceSync = 0
		}
	}
	sw.next++
	return nil
}

// Next returns the scenario index the writer expects to append next.
func (sw *StreamWriter) Next() int { return sw.next }

// Complete reports whether every record in the header's range has been
// appended.
func (sw *StreamWriter) Complete() bool { return sw.next == sw.hdr.Hi }

// StreamReader reads a shard result stream record by record, validating
// each against the header exactly as ShardResult.Validate would.
type StreamReader struct {
	br   *bufio.Reader
	hdr  StreamHeader
	pols []string
	next int
	off  int64 // bytes read through the last intact record
}

// errNotStream is the one error for input that does not open with a stream
// header — in particular the indented-JSON shard documents older releases
// wrote, which are no longer read.
var errNotStream = errors.New("fleet: not a shard result stream (classic JSON shard files are no longer read; re-run the shard with fleetsim -shard i/m -out F to write it as a stream)")

// corruptRecordError is a record line torn mid-write or not decodable: what
// a killed writer leaves at its crash point. ResumeShard truncates the
// stream there; every other read error is a hard error.
type corruptRecordError struct{ err error }

func (e corruptRecordError) Error() string { return e.err.Error() }
func (e corruptRecordError) Unwrap() error { return e.err }

// NewStreamReader reads and validates the header line, transparently
// decompressing gzip input (a finished stream may be archived compressed;
// sniffed by magic number).
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("fleet: decompressing shard: %w", err)
		}
		br = bufio.NewReader(zr)
	}
	return newStreamReader(br)
}

// newStreamReader is NewStreamReader without the gzip sniff, for
// ResumeShard, which appends to the raw file. An empty input or a header
// torn mid-line fails wrapping io.EOF.
func newStreamReader(br *bufio.Reader) (*StreamReader, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("fleet: reading stream header: %w", err)
	}
	if !bytes.HasPrefix(line, []byte(streamPrefix)) {
		return nil, errNotStream
	}
	var hdr StreamHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, fmt.Errorf("fleet: decoding stream header: %w", err)
	}
	if err := hdr.validate(); err != nil {
		return nil, err
	}
	pols, _ := resolvePolicies(hdr.Config.Policies) // validated with hdr
	return &StreamReader{br: br, hdr: hdr, pols: pols, next: hdr.Lo, off: int64(len(line))}, nil
}

// Header returns the validated stream header.
func (sr *StreamReader) Header() StreamHeader { return sr.hdr }

// Read returns the next record. It fails loud on a record that does not
// belong to the header's run, on trailing records beyond the range, and on
// a truncated final line (io.ErrUnexpectedEOF — the crash point of a
// killed writer). io.EOF means the stream ended cleanly at a record
// boundary; the caller decides whether the prefix read so far is complete.
func (sr *StreamReader) Read() (Result, error) {
	line, err := sr.br.ReadBytes('\n')
	if errors.Is(err, io.EOF) {
		if len(line) == 0 {
			return Result{}, io.EOF
		}
		return Result{}, corruptRecordError{fmt.Errorf("fleet: stream record %d truncated mid-line: %w", sr.next, io.ErrUnexpectedEOF)}
	}
	if err != nil {
		return Result{}, fmt.Errorf("fleet: reading stream record %d: %w", sr.next, err)
	}
	var r Result
	if err := decodeResult(line, &r); err != nil {
		return Result{}, corruptRecordError{fmt.Errorf("fleet: decoding stream record %d: %w", sr.next, err)}
	}
	if sr.next >= sr.hdr.Hi {
		return Result{}, fmt.Errorf("fleet: stream [%d,%d) carries records beyond its range", sr.hdr.Lo, sr.hdr.Hi)
	}
	if err := validateResultAt(sr.hdr.Config.Seed, sr.pols, r, sr.next); err != nil {
		return Result{}, err
	}
	sr.next++
	sr.off += int64(len(line))
	return r, nil
}

// readAll reads the remaining records of a complete stream into the
// equivalent ShardResult. An incomplete stream — fewer records than the
// header's range — is an error; resume it with ResumeShard instead. The
// results slice grows with the records actually read: the header's range
// is only a claim until they are.
func (sr *StreamReader) readAll() (ShardResult, error) {
	var results []Result
	for {
		r, err := sr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return ShardResult{}, err
		}
		results = append(results, r)
	}
	if len(results) != sr.hdr.Hi-sr.hdr.Lo {
		return ShardResult{}, fmt.Errorf("fleet: stream incomplete: has %d of %d results (scenarios [%d,%d) of [%d,%d) missing); resume it with ResumeShard or fleetsim -resume",
			len(results), sr.hdr.Hi-sr.hdr.Lo, sr.hdr.Lo+len(results), sr.hdr.Hi, sr.hdr.Lo, sr.hdr.Hi)
	}
	s := ShardResult{
		FormatVersion: sr.hdr.FormatVersion,
		Config:        sr.hdr.Config,
		Total:         sr.hdr.Total,
		Lo:            sr.hdr.Lo,
		Hi:            sr.hdr.Hi,
		Results:       results,
	}
	if err := s.Validate(); err != nil {
		return ShardResult{}, err
	}
	return s, nil
}

// ResumeShard runs shard index (0-based) of count over a total-workload
// fleet, streaming each completed result to path, resuming from whatever a
// previous (possibly killed) process already flushed there. See
// Runner.ResumeShard.
func ResumeShard(path string, cfg GeneratorConfig, total, index, count, workers int) (ShardResult, error) {
	return (&Runner{Workers: workers}).ResumeShard(path, cfg, total, index, count)
}

// ResumeShard generates and runs shard index (0-based) of count over a
// fleet of total workloads (total × P scenario runs when the config sweeps
// P policies). It is the one writer of shard files: results stream to path
// as NDJSON, flushed per scenario, so a process killed at scenario k of its
// range restarts from k+1 — not from scratch. A missing or empty path
// starts a fresh stream; an existing one must carry a header matching the
// requested run (same seed, config, range, format version and latency
// mode) and is replayed, validated record by record, before the missing
// suffix is generated and run. A truncated final line — the usual
// kill-mid-write artifact — is discarded and rewritten. The returned
// ShardResult is identical to one uninterrupted run of the range, which is
// what keeps the merged report byte-identical to a single-process Run no
// matter how many times a shard crashed on the way.
func (r *Runner) ResumeShard(path string, cfg GeneratorConfig, total, index, count int) (ShardResult, error) {
	if total <= 0 {
		return ShardResult{}, fmt.Errorf("fleet: scenario count %d must be positive", total)
	}
	if count < 1 || index < 0 || index >= count {
		return ShardResult{}, fmt.Errorf("fleet: shard index %d of %d out of range", index, count)
	}
	gen, err := NewGenerator(cfg)
	if err != nil {
		return ShardResult{}, err
	}
	runs := gen.RunCount(total)
	lo, hi := ShardRange(runs, index, count)
	want := StreamHeader{
		Stream:        streamMagic,
		FormatVersion: ShardFormatVersion,
		Config:        cfg,
		Total:         runs,
		Lo:            lo,
		Hi:            hi,
		NoLatencies:   r.DropLatencies,
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return ShardResult{}, err
	}
	defer f.Close()

	replayed, offset, err := replayStream(f, want)
	if err != nil {
		return ShardResult{}, fmt.Errorf("%s: %w", path, err)
	}
	next := lo + len(replayed)

	// Drop any truncated final line and position the writer at the end of
	// the last intact record (or at 0 for a fresh/garbled-header file).
	if err := f.Truncate(offset); err != nil {
		return ShardResult{}, err
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return ShardResult{}, err
	}
	var sw *StreamWriter
	if offset == 0 {
		if sw, err = NewStreamWriter(f, want); err != nil {
			return ShardResult{}, err
		}
	} else {
		sw = newStreamWriterAt(f, want, next)
	}
	sw.SetSyncEvery(r.SyncEvery)

	results := replayed
	if next < hi {
		// Copy the runner so the stream hook does not clobber a caller's
		// own callback wiring; OnResult delivery is already serialized and
		// index-ordered, which is exactly the order the stream needs. The
		// copy shares the original's plan-stats accumulator, so the
		// caller's PlanStats still sees this run.
		r.ensurePlanStats()
		rr := *r
		var streamErr error
		rr.OnResult = func(_ int, res Result) {
			if streamErr == nil {
				streamErr = sw.Append(res)
			}
		}
		fresh := rr.Run(gen.GenerateRange(next, hi))
		if streamErr != nil {
			return ShardResult{}, fmt.Errorf("%s: %w", path, streamErr)
		}
		results = append(results, fresh...)
	}
	if err := f.Sync(); err != nil {
		return ShardResult{}, err
	}

	s := ShardResult{
		FormatVersion: ShardFormatVersion,
		Config:        cfg,
		Total:         runs,
		Lo:            lo,
		Hi:            hi,
		Results:       results,
	}
	if err := s.Validate(); err != nil {
		return ShardResult{}, fmt.Errorf("%s: resumed shard failed validation: %w", path, err)
	}
	return s, nil
}

// replayStream reads an existing stream file from the start, returning the
// intact completed results and the byte offset just past the last intact
// line. A torn or undecodable record marks the crash point: replay stops
// there and the caller truncates; the re-run reproduces the discarded
// records bit-identically. An empty file — or one whose header line itself
// was torn mid-write — replays to nothing (offset 0, full restart). A
// header that does not parse or does not match the requested run, and a
// record that does not belong to it, are hard errors: the caller pointed
// resume at the wrong file, and extending it would corrupt someone else's
// shard.
func replayStream(f *os.File, want StreamHeader) ([]Result, int64, error) {
	sr, err := newStreamReader(bufio.NewReader(f))
	if errors.Is(err, io.EOF) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%w; refusing to overwrite it", err)
	}
	if err := sr.hdr.matches(want); err != nil {
		return nil, 0, err
	}
	var results []Result
	for {
		r, err := sr.Read()
		if err != nil {
			var corrupt corruptRecordError
			if errors.Is(err, io.EOF) || errors.As(err, &corrupt) {
				return results, sr.off, nil
			}
			return nil, 0, err
		}
		results = append(results, r)
	}
}
