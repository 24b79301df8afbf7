package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
)

func TestCountersJSONRoundTrip(t *testing.T) {
	c := NewCounters()
	c.Add("zeta", 3)
	c.Add("alpha", 1)
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"zeta":3,"alpha":1}` {
		t.Fatalf("json = %s, want creation order preserved", data)
	}
	back := NewCounters()
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.Get("alpha") != 1 || back.Get("zeta") != 3 {
		t.Fatalf("round trip lost values: %s", back)
	}
	names := back.Names()
	if len(names) != 2 || names[0] != "zeta" || names[1] != "alpha" {
		t.Fatalf("round trip reordered counters: %v", names)
	}
}

// TestCountersJSONOrderSurvivesDoubleRoundTrip guards the property the
// persistent store depends on: marshal → unmarshal → marshal must be
// byte-identical, so renderers see the same counter order on a store hit
// as on a fresh simulation.
func TestCountersJSONOrderSurvivesDoubleRoundTrip(t *testing.T) {
	c := NewCounters()
	for _, name := range []string{"writes", "reads", "evictions", "appends", "misses"} {
		c.Add(name, uint64(len(name)))
	}
	first, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	back := NewCounters()
	if err := json.Unmarshal(first, back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("double round trip changed encoding:\n first: %s\nsecond: %s", first, second)
	}
	if back.String() != c.String() {
		t.Fatalf("rendering differs after round trip:\nwant %q\n got %q", c.String(), back.String())
	}
}

func TestCountersJSONRejectsGarbage(t *testing.T) {
	c := NewCounters()
	if err := json.Unmarshal([]byte(`[1,2]`), c); err == nil {
		t.Fatal("array accepted as counters")
	}
	if err := json.Unmarshal([]byte(`{"a":"x"}`), c); err == nil {
		t.Fatal("string value accepted as counter")
	}
	if err := json.Unmarshal([]byte(`{"a":-1}`), c); err == nil {
		t.Fatal("negative value accepted as counter")
	}
}

func TestCountersJSONIntoZeroValue(t *testing.T) {
	// The decoder may hand UnmarshalJSON a zero-value Counters (no
	// NewCounters); it must still work.
	var c Counters
	if err := json.Unmarshal([]byte(`{"b":2,"a":1}`), &c); err != nil {
		t.Fatal(err)
	}
	if c.Get("b") != 2 || c.Get("a") != 1 {
		t.Fatalf("values lost: %s", &c)
	}
	if names := c.Names(); len(names) != 2 || names[0] != "b" {
		t.Fatalf("order lost: %v", names)
	}
}

// TestScanCountersJSONCheckAllocs: checking a counter set builds
// nothing, escaped keys included, and reports where the object ends.
func TestScanCountersJSONCheckAllocs(t *testing.T) {
	obj := `{"sector_requests":57160,"l1_misses":54624,"l2\"hits":null}`
	data := []byte(obj + `,"next":{}`)
	if n := testing.AllocsPerRun(100, func() {
		if n, err := ScanCountersJSON(data, nil); err != nil || n != len(obj) {
			t.Fatalf("ScanCountersJSON = %d, %v; want %d, nil", n, err, len(obj))
		}
	}); n != 0 {
		t.Fatalf("ScanCountersJSON(nil) allocates %.0f times, want 0", n)
	}
}

// decoderUnmarshal is the json.Decoder implementation UnmarshalJSON
// replaced, kept as the oracle for FuzzCountersUnmarshal.
func decoderUnmarshal(c *Counters, data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if tok != json.Delim('{') {
		return fmt.Errorf("stats: counters must be a JSON object, got %v", tok)
	}
	c.index = make(map[string]int32)
	c.vals = c.vals[:0]
	c.order = c.order[:0]
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		key, ok := tok.(string)
		if !ok {
			return fmt.Errorf("stats: non-string counter key %v", tok)
		}
		var v uint64
		if err := dec.Decode(&v); err != nil {
			return err
		}
		c.Set(key, v)
	}
	if _, err := dec.Token(); err != nil {
		return err
	}
	return nil
}

// FuzzCountersUnmarshal checks UnmarshalJSON against the json.Decoder
// oracle on arbitrary input: the same accept/reject outcome and, on
// acceptance, the same names in the same order with the same values.
// ScanCountersJSON with no counter set must accept exactly what
// UnmarshalJSON accepts, and end at the object's closing brace.
func FuzzCountersUnmarshal(f *testing.F) {
	for _, seed := range []string{
		`{}`, ` { } `, `{"zeta":3,"alpha":1}`, `{"a":1,"b":2,"a":3}`,
		`{"a":null}`, `{"a":0}`, `{"a":18446744073709551615}`,
		`{"a":18446744073709551616}`, `{"a":01}`, `{"a":-1}`, `{"a":-0}`,
		`{"a":1.5}`, `{"a":1e3}`, `{"a":"1"}`, `{"a":true}`, `{"a":{}}`,
		`{"a":[]}`, `{"a":1,}`, `{,}`, `{"a" 1}`, `{"a":}`, `{"a":1 "b":2}`,
		`{"a":1}trailing`, `{"a":1}}`, `{"a":nullx}`, `{"a":1`, `{`, ``,
		`[1,2]`, `null`, `"x"`, `{1:2}`, `{"a\n":1}`, `{"\ud800":1}`,
		"{\"\xff\":1}", "{\"a\x01\":1}", `{"a\x":1}`, `{"\"":2}`, "\t{\r\n\"a\" :\n1 }",
		`{"sector_requests":57160,"l1_misses":54624,"l2_hits":10072}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := NewCounters(), NewCounters()
		gerr := got.UnmarshalJSON(data)
		werr := decoderUnmarshal(want, data)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%q: UnmarshalJSON err = %v, decoder err = %v", data, gerr, werr)
		}
		n, cerr := ScanCountersJSON(data, nil)
		if (cerr == nil) != (gerr == nil) {
			t.Fatalf("%q: ScanCountersJSON(nil) err = %v, UnmarshalJSON err = %v", data, cerr, gerr)
		}
		if cerr == nil && (n == 0 || data[n-1] != '}' || !json.Valid(data[:n])) {
			t.Fatalf("%q: ScanCountersJSON(nil) ends the object at byte %d", data, n)
		}
		if gerr != nil {
			return
		}
		if !slices.Equal(got.Names(), want.Names()) {
			t.Fatalf("%q: names %q, decoder names %q", data, got.Names(), want.Names())
		}
		for _, name := range want.Names() {
			if got.Get(name) != want.Get(name) {
				t.Fatalf("%q: %q = %d, decoder %d", data, name, got.Get(name), want.Get(name))
			}
		}
	})
}
