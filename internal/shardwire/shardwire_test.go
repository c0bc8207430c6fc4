package shardwire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// validRequest is a well-formed two-segment exact-mode request.
func validRequest() SearchRequest {
	return SearchRequest{
		Shard: 1, Sub: 2,
		Blueprint: Blueprint{
			Anchors: []uint32{3, 1},
			EndSets: [][]uint32{{4, 9}, {7}},
			Rows:    []map[string]float64{{"assembly": 1, "type": 0.25}, {"locatedIn": 0.5}},
		},
		Tau: 0.5, MaxHops: 3, PruneVisited: true, Offset: 4,
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSearchRequestRoundTrip(t *testing.T) {
	fresh := validRequest()
	fresh.Offset, fresh.PruneVisited, fresh.NoHeuristic = 0, false, true
	for name, want := range map[string]SearchRequest{"resumed": validRequest(), "fresh": fresh} {
		got, err := DecodeSearchRequest(bytes.NewReader(mustJSON(t, want)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("%s: round trip changed the request:\n got %+v\nwant %+v", name, *got, want)
		}
	}
}

// TestDecodeSearchRequestRejects: the request decoder is the shard
// server's trust boundary — malformed JSON, version skew (unknown
// fields), smuggled trailing data and every out-of-range field fail
// before any search work.
func TestDecodeSearchRequestRejects(t *testing.T) {
	good := string(mustJSON(t, validRequest()))
	mutate := func(f func(*SearchRequest)) string {
		r := validRequest()
		f(&r)
		return string(mustJSON(t, r))
	}
	cases := map[string]string{
		"empty body":         ``,
		"not json":           `shard=1`,
		"truncated":          good[:len(good)/2],
		"wrong type":         `{"shard":"one","tau":0.5,"max_hops":3}`,
		"unknown field":      strings.Replace(good, `"tau"`, `"tau_v2":1,"tau"`, 1),
		"trailing object":    good + `{"shard":0}`,
		"trailing garbage":   good + ` x`,
		"array not object":   `[` + good + `]`,
		"negative shard":     mutate(func(r *SearchRequest) { r.Shard = -1 }),
		"negative sub":       mutate(func(r *SearchRequest) { r.Sub = -1 }),
		"zero tau":           mutate(func(r *SearchRequest) { r.Tau = 0 }),
		"tau above one":      mutate(func(r *SearchRequest) { r.Tau = 1.01 }),
		"zero max hops":      mutate(func(r *SearchRequest) { r.MaxHops = 0 }),
		"negative offset":    mutate(func(r *SearchRequest) { r.Offset = -1 }),
		"rows vs segments":   mutate(func(r *SearchRequest) { r.Rows = r.Rows[:1] }),
		"retired eager mode": strings.Replace(good, `"tau"`, `"eager":true,"time_bound_ns":25000000,"tau"`, 1),
		"id beyond uint32":   strings.Replace(good, `"anchors":[3,1]`, `"anchors":[4294967296]`, 1),
		"negative id":        strings.Replace(good, `"anchors":[3,1]`, `"anchors":[-1]`, 1),
		"fractional offset":  strings.Replace(good, `"offset":4`, `"offset":4.5`, 1),
	}
	for name, body := range cases {
		if req, err := DecodeSearchRequest(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted %q as %+v", name, body, req)
		}
	}
	// Trailing whitespace is not data.
	if _, err := DecodeSearchRequest(strings.NewReader(good + "\n \n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

func matchLine() Line {
	return Line{Nodes: []uint32{5, 0, 8}, Edges: []uint32{11, 2}, SegEnds: []int{1, 2}, PSS: 0.75}
}

// TestLineRoundTrip: match, done and error lines survive EncodeLine →
// LineReader, in order, with blank keep-alive lines skipped and io.EOF at
// the end.
func TestLineRoundTrip(t *testing.T) {
	lines := []Line{
		matchLine(),
		{Nodes: []uint32{1, 2}, Edges: []uint32{0}, SegEnds: []int{1}, PSS: 1},
		{Done: true, Stats: &SearchStats{Popped: 4, Pushed: 9, Pruned: 2, Emitted: 2}},
	}
	var buf bytes.Buffer
	for _, l := range lines {
		b, err := EncodeLine(l)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.ContainsRune(b, '\n') {
			t.Fatalf("encoded line spans lines: %q", b)
		}
		buf.Write(b)
		buf.WriteString("\n\n") // a blank line between frames is skipped
	}
	lr := NewLineReader(&buf)
	for i, want := range lines {
		got, err := lr.Next()
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("line %d: got %+v, want %+v", i, got, want)
		}
		if got.Terminal() != (i == len(lines)-1) {
			t.Fatalf("line %d: Terminal() = %v", i, got.Terminal())
		}
	}
	if _, err := lr.Next(); err != io.EOF {
		t.Fatalf("after the last line: %v, want io.EOF", err)
	}

	errLine := Line{Error: "shard: predicate \"x\" not in the blueprint's weight rows"}
	b, _ := EncodeLine(errLine)
	got, err := NewLineReader(bytes.NewReader(append(b, '\n'))).Next()
	if err != nil || !got.Terminal() || got.Error != errLine.Error {
		t.Fatalf("error line: %+v, %v", got, err)
	}
}

// TestLineReaderRejects: what a coordinator must never merge — a line cut
// mid-frame, a frame larger than the reader's bound, and match lines that
// are not a path (End() and the SegEnds positions are read unchecked
// downstream).
func TestLineReaderRejects(t *testing.T) {
	whole, _ := EncodeLine(matchLine())
	bad := map[string]string{
		"truncated mid-line":     string(whole[:len(whole)-7]),
		"not json":               "match 1 2 3\n",
		"empty object":           "{}\n",
		"one node":               `{"nodes":[1],"pss":0.5}` + "\n",
		"edges do not fit nodes": `{"nodes":[1,2,3],"edges":[0],"seg_ends":[2],"pss":0.5}` + "\n",
		"segment end past path":  `{"nodes":[1,2],"edges":[0],"seg_ends":[2],"pss":0.5}` + "\n",
		"segment end at anchor":  `{"nodes":[1,2],"edges":[0],"seg_ends":[0,1],"pss":0.5}` + "\n",
		"segments out of order":  `{"nodes":[1,2,3],"edges":[0,1],"seg_ends":[2,1],"pss":0.5}` + "\n",
		"last segment short":     `{"nodes":[1,2,3],"edges":[0,1],"seg_ends":[1],"pss":0.5}` + "\n",
		"no segments":            `{"nodes":[1,2],"edges":[0],"pss":0.5}` + "\n",
		"zero pss":               `{"nodes":[1,2],"edges":[0],"seg_ends":[1]}` + "\n",
		"pss above one":          `{"nodes":[1,2],"edges":[0],"seg_ends":[1],"pss":1.5}` + "\n",
		"negative node id":       `{"nodes":[-1,2],"edges":[0],"seg_ends":[1],"pss":0.5}` + "\n",
		"done with a match":      `{"nodes":[1,2],"edges":[0],"seg_ends":[1],"pss":0.5,"done":true}` + "\n",
	}
	for name, stream := range bad {
		if l, err := NewLineReader(strings.NewReader(stream)).Next(); err == nil {
			t.Errorf("%s: accepted %q as %+v", name, stream, l)
		}
	}

	// A stream that just stops is io.EOF — the caller sees no terminal
	// line and treats it as truncation.
	lr := NewLineReader(bytes.NewReader(append(whole, '\n')))
	if _, err := lr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := lr.Next(); err != io.EOF {
		t.Fatalf("truncated stream: %v, want io.EOF", err)
	}

	// Oversized frame: bounded memory, an error rather than a hang or an
	// allocation the size of the peer's choosing.
	huge := `{"error":"` + strings.Repeat("x", maxLineBytes) + `"}` + "\n"
	if _, err := NewLineReader(strings.NewReader(huge)).Next(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("oversized line: %v, want a too-long error", err)
	}
}

func TestMetaRoundTrip(t *testing.T) {
	want := Meta{Shards: []ShardInfo{{
		Index: 1, Shards: 2, Halo: 4, Nodes: 90, Edges: 200, Owned: 45,
		MaxGlobalNode: 179,
		Samples:       []Sample{{ID: 1, Name: "Germany"}, {ID: 179, Name: "BMW_320"}},
	}}}
	var got Meta
	if err := json.Unmarshal(mustJSON(t, want), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("meta round trip: got %+v, want %+v", got, want)
	}
}

// FuzzDecodeSearchRequest: no input panics the decoder, and whatever it
// accepts is valid and stable — re-encoding and decoding again yields the
// same request.
func FuzzDecodeSearchRequest(f *testing.F) {
	f.Add(mustJSON(f, validRequest()))
	f.Add([]byte(`{"shard":0,"sub":0,"anchors":[],"end_sets":[],"rows":[],"tau":1,"max_hops":1}`))
	f.Add([]byte(`{"shard":0,"tau":0.5,"max_hops":2,"offset":1}x`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeSearchRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("accepted request fails Validate: %v", err)
		}
		again, err := DecodeSearchRequest(bytes.NewReader(mustJSON(t, req)))
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v", err)
		}
		if !bytes.Equal(mustJSON(t, again), mustJSON(t, req)) {
			t.Fatalf("request not stable across a round trip:\n%s\n%s", mustJSON(t, again), mustJSON(t, req))
		}
	})
}

// FuzzLineRoundTrip: no byte stream panics the reader; every line it
// accepts is either terminal or a usable match (the documented "always at
// least two nodes"), and re-encodes to a line that reads back identically.
func FuzzLineRoundTrip(f *testing.F) {
	for _, l := range []Line{matchLine(), {Done: true, Stats: &SearchStats{Popped: 1}}, {Error: "boom"}} {
		b, _ := EncodeLine(l)
		f.Add(append(b, '\n'))
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		lr := NewLineReader(bytes.NewReader(stream))
		for {
			l, err := lr.Next()
			if err != nil {
				return
			}
			if !l.Terminal() {
				if len(l.Nodes) < 2 || len(l.Edges) != len(l.Nodes)-1 {
					t.Fatalf("accepted a match line that is not a path: %+v", l)
				}
				for _, pos := range l.SegEnds {
					if pos <= 0 || pos >= len(l.Nodes) {
						t.Fatalf("accepted segment end %d outside the path: %+v", pos, l)
					}
				}
			}
			b, err := EncodeLine(l)
			if err != nil {
				t.Fatalf("accepted line does not re-encode: %v", err)
			}
			back, err := NewLineReader(bytes.NewReader(append(b, '\n'))).Next()
			if err != nil {
				t.Fatalf("re-encoded line %q rejected: %v", b, err)
			}
			if b2, _ := EncodeLine(back); !bytes.Equal(b, b2) {
				t.Fatalf("line not stable across a round trip: %q vs %q", b, b2)
			}
		}
	})
}
