package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// TestAppendResultMatchesMarshal pins the stream writer's record encoding
// to json.Marshal byte for byte — on generated results from every class
// (faulty ones carry the omitempty fault fields), on hand-built samples at
// the edges of encoding/json's 'f'/'e' float rule, and on results with no
// samples — and checks that every such record takes decodeResult's fast
// path back to an equal Result.
func TestAppendResultMatchesMarshal(t *testing.T) {
	gen, err := NewGenerator(GeneratorConfig{Seed: 29, Classes: AllClasses()})
	if err != nil {
		t.Fatal(err)
	}
	results := (&Runner{Workers: 2}).Run(gen.Generate(gen.RunCount(12)))
	classes := map[Class]bool{}
	faultFields := false
	for _, r := range results {
		classes[r.Class] = true
		faultFields = faultFields || r.ClusterFails > 0
	}
	if len(classes) != len(AllClasses()) || !faultFields {
		t.Fatalf("generated classes %v (fault fields set: %v); want all %d classes and a faulty run",
			classes, faultFields, len(AllClasses()))
	}
	edges := []float64{5e-324, 1e-7, 9.99e-7, 1e-6, 1e20, 1e21, math.Copysign(0, -1), 0,
		-1e-7, -2.5e21, 0.1, 1.5e-9, 123456789.125, math.MaxFloat64, -math.SmallestNonzeroFloat64}
	results = append(results,
		Result{ID: 1, Name: "edges", Latencies: edges},
		Result{ID: 2, Name: "no-samples"},
		Result{ID: 3, Name: "empty-samples", Latencies: []float64{}},
		Result{ID: 4, Name: "html<&>", Err: "quote \" and \u2028", Latencies: []float64{1}},
	)
	var buf []byte
	for _, r := range results {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf, err = appendResult(buf[:0], r)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("%s: appendResult differs from json.Marshal:\n got %.300s\nwant %.300s", r.Name, buf, want)
		}
		if len(r.Latencies) > 0 {
			_, span, ok := splitRecord(buf)
			if _, parsed := parseSamples(span); !ok || !parsed {
				t.Errorf("%s: record does not take the decode fast path", r.Name)
			}
		}
		var got, ref Result
		if err := decodeResult(buf, &got); err != nil {
			t.Fatalf("%s: decodeResult: %v", r.Name, err)
		}
		if err := json.Unmarshal(buf, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: decodeResult = %+v, json.Unmarshal = %+v", r.Name, got, ref)
		}
	}

	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := Result{Latencies: []float64{1, x}}
		if _, err := json.Marshal(r); err == nil {
			t.Fatalf("json.Marshal accepted %v", x)
		}
		if _, err := appendResult(nil, r); err == nil {
			t.Errorf("appendResult accepted sample %v; json.Marshal rejects it", x)
		}
	}
}

// FuzzDecodeResult: for any input, decodeResult and json.Unmarshal either
// both fail or decode equal Results, and neither panics. The seed corpus
// under testdata/fuzz/FuzzDecodeResult holds real record lines (with and
// without samples), a torn line, and the traps the fast path must refuse:
// an empty head, a nested or duplicate or differently cased latencies key,
// whitespace, CRLF, and numbers outside strict JSON grammar or float range.
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		var got, want Result
		gotErr := decodeResult(line, &got)
		wantErr := json.Unmarshal(line, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeResult error %v, json.Unmarshal error %v", gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeResult = %+v, json.Unmarshal = %+v", got, want)
		}
	})
}
