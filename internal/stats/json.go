package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
)

// MarshalJSON renders the counters as a JSON object whose keys appear in
// creation order, so exporting and re-importing a counter set (e.g.
// through the persistent result store) preserves the order every renderer
// relies on.
func (c *Counters) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, k := range c.order {
		if i > 0 {
			b.WriteByte(',')
		}
		key, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		b.Write(key)
		b.WriteByte(':')
		fmt.Fprintf(&b, "%d", c.vals[i])
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// UnmarshalJSON restores counters from their JSON object form, preserving
// the order in which keys appear in the document (which MarshalJSON made
// the creation order). A duplicate key keeps its first position and takes
// the last value, matching encoding/json's map behaviour.
//
// It scans the object directly instead of going through a json.Decoder,
// accepting exactly what a token-by-token decode into uint64 values
// accepts: string keys; values that are unsigned integers in uint64 range
// or null (which stores 0); JSON whitespace between tokens; and any bytes
// after the closing brace, which are not read.
func (c *Counters) UnmarshalJSON(data []byte) error {
	_, err := ScanCountersJSON(data, c)
	return err
}

// ScanCountersJSON reads the counters object that opens data, after any
// JSON whitespace, with UnmarshalJSON's grammar, and returns the length
// of data up to and including the object's closing brace. It stores each
// member in c, or, with c nil, only checks the object: every key and
// value is then discarded, and a valid object costs no allocation.
func ScanCountersJSON(data []byte, c *Counters) (int, error) {
	p := countersParser{data: data}
	p.skipSpace()
	if !p.consume('{') {
		return 0, p.fail("counters must be a JSON object")
	}
	if c != nil {
		// Every member has a colon, so counting them up to the first
		// brace bounds the member count of most objects; it is only a
		// capacity hint.
		rest := data[p.pos:]
		if end := bytes.IndexByte(rest, '}'); end >= 0 {
			rest = rest[:end]
		}
		n := bytes.Count(rest, []byte(":"))
		c.index = make(map[string]int32, n)
		c.vals = slices.Grow(c.vals[:0], n)
		c.order = slices.Grow(c.order[:0], n)
	}
	p.skipSpace()
	if p.consume('}') {
		return p.pos, nil
	}
	for {
		p.skipSpace()
		key, err := p.key(c != nil)
		if err != nil {
			return 0, err
		}
		p.skipSpace()
		if !p.consume(':') {
			return 0, p.fail("expected ':' after counter key")
		}
		p.skipSpace()
		v, err := p.value()
		if err != nil {
			return 0, err
		}
		if c != nil {
			c.Set(key, v)
		}
		p.skipSpace()
		if p.consume('}') {
			return p.pos, nil
		}
		if !p.consume(',') {
			return 0, p.fail("expected ',' or '}' after counter value")
		}
	}
}

// countersParser is ScanCountersJSON's cursor over one counters object.
type countersParser struct {
	data []byte
	pos  int
}

func (p *countersParser) skipSpace() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// consume advances past b if it is the next byte.
func (p *countersParser) consume(b byte) bool {
	if p.pos < len(p.data) && p.data[p.pos] == b {
		p.pos++
		return true
	}
	return false
}

func (p *countersParser) fail(what string) error {
	if p.pos >= len(p.data) {
		return fmt.Errorf("stats: %s, got end of input", what)
	}
	return fmt.Errorf("stats: %s, got %q at offset %d", what, p.data[p.pos], p.pos)
}

// key reads a JSON string and, with keep, returns its value. Plain
// printable ASCII keys (every counter name the simulator creates) are
// sliced out directly; a key with escapes or other bytes is unquoted by
// encoding/json, which validates it, or only validated when the value is
// not kept.
func (p *countersParser) key(keep bool) (string, error) {
	if !p.consume('"') {
		return "", p.fail("counter key must be a string")
	}
	start := p.pos
	plain := true
	for i := start; i < len(p.data); i++ {
		switch b := p.data[i]; {
		case b == '"':
			p.pos = i + 1
			if plain {
				if !keep {
					return "", nil
				}
				return string(p.data[start:i]), nil
			}
			tok := p.data[start-1 : p.pos]
			if !keep {
				if !json.Valid(tok) {
					return "", fmt.Errorf("stats: counter key at offset %d is not a valid JSON string", start-1)
				}
				return "", nil
			}
			var key string
			if err := json.Unmarshal(tok, &key); err != nil {
				return "", fmt.Errorf("stats: counter key: %w", err)
			}
			return key, nil
		case b == '\\':
			plain = false
			i++ // the escaped byte cannot end the string
		case b < 0x20 || b >= 0x80:
			plain = false
		}
	}
	p.pos = len(p.data)
	return "", p.fail("unterminated counter key")
}

// value reads a counter value: an unsigned decimal integer without
// leading zeros that fits in uint64, or null.
func (p *countersParser) value() (uint64, error) {
	if bytes.HasPrefix(p.data[p.pos:], []byte("null")) {
		p.pos += len("null")
		return 0, nil
	}
	start := p.pos
	var v uint64
	for p.pos < len(p.data) {
		d := p.data[p.pos] - '0'
		if d > 9 {
			break
		}
		if v > (1<<64-1-uint64(d))/10 {
			return 0, fmt.Errorf("stats: counter value at offset %d overflows uint64", start)
		}
		v = v*10 + uint64(d)
		p.pos++
	}
	switch n := p.pos - start; {
	case n == 0:
		return 0, p.fail("counter value must be an unsigned integer or null")
	case n > 1 && p.data[start] == '0':
		return 0, fmt.Errorf("stats: counter value at offset %d has a leading zero", start)
	}
	return v, nil
}
