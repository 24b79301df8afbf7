package store

import (
	"bytes"
	"encoding/json"
	"strconv"

	"cachecraft/internal/stats"
)

// decodeRecord parses a record body laid out exactly as EncodeRecord
// writes it: the Record keys, then the gpu.Result keys in declaration
// order, each once, with no whitespace between tokens. It reports false
// for any other shape, so every body it accepts is one json.Unmarshal
// decodes to the same Record. The counter sets go through the scanner
// behind stats.Counters.UnmarshalJSON, as they do under json.Unmarshal.
func decodeRecord(body []byte) (Record, bool) {
	var rec Record
	d := recordDecoder{data: body}
	if !d.record(&rec) {
		return Record{}, false
	}
	return rec, true
}

// checkRecord reports whether decodeRecord accepts body, without building
// the record: it walks the same fields with the same checks but stores
// nothing, so a valid body costs no allocation.
func checkRecord(body []byte) bool {
	var discard Record // check mode never writes it
	d := recordDecoder{data: body, check: true}
	return d.record(&discard)
}

// record walks one body in EncodeRecord's layout, the one field sequence
// both decodeRecord and checkRecord follow.
func (d *recordDecoder) record(rec *Record) bool {
	r := &rec.Result
	return d.lit(`{"fingerprint":`) && d.str(&rec.Fingerprint) &&
		d.lit(`,"sim":`) && d.str(&rec.Sim) &&
		d.lit(`,"workload":`) && d.str(&rec.Workload) &&
		d.lit(`,"scheme":`) && d.str(&rec.Scheme) &&
		d.lit(`,"result":{"Workload":`) && d.str(&r.Workload) &&
		d.lit(`,"Scheme":`) && d.str(&r.Scheme) &&
		d.lit(`,"Cycles":`) && d.uint((*uint64)(&r.Cycles)) &&
		d.lit(`,"Instructions":`) && d.uint(&r.Instructions) &&
		d.lit(`,"IPC":`) && d.float(&r.IPC) &&
		d.lit(`,"DRAMBytes":`) && d.byteMap(&r.DRAMBytes) &&
		d.lit(`,"DRAMRowHits":`) && d.uint(&r.DRAMRowHits) &&
		d.lit(`,"DRAMRowMisses":`) && d.uint(&r.DRAMRowMisses) &&
		d.lit(`,"DRAMRowConfl":`) && d.uint(&r.DRAMRowConfl) &&
		d.lit(`,"L1HitRate":`) && d.float(&r.L1HitRate) &&
		d.lit(`,"L2HitRate":`) && d.float(&r.L2HitRate) &&
		d.lit(`,"AvgMemLatency":`) && d.float(&r.AvgMemLatency) &&
		d.lit(`,"Machine":`) && d.counters(&r.Machine) &&
		d.lit(`,"ControllerSt":`) && d.counters(&r.ControllerSt) &&
		d.lit(`,"L2Stats":`) && d.counters(&r.L2Stats) &&
		d.lit(`,"DRAMStats":`) && d.counters(&r.DRAMStats) &&
		d.lit(`,"BusUtilization":`) && d.float(&r.BusUtilization) &&
		d.lit(`}}`) && d.pos == len(d.data)
}

// recordDecoder is the record walk's cursor. Each method consumes one
// token or value and reports false, leaving the cursor anywhere, on a
// mismatch. In check mode the methods validate exactly as they would
// decode but never write through their destination pointers.
type recordDecoder struct {
	data  []byte
	pos   int
	check bool
}

// lit consumes s verbatim.
func (d *recordDecoder) lit(s string) bool {
	if !bytes.HasPrefix(d.data[d.pos:], []byte(s)) {
		return false
	}
	d.pos += len(s)
	return true
}

// stringEnd returns the index just past the JSON string that opens at
// data[i], skipping escaped bytes, and whether it is plain: printable
// ASCII with no escapes, so its contents are its value. It returns -1
// for an unterminated string.
func stringEnd(data []byte, i int) (end int, plain bool) {
	plain = true
	for i++; i < len(data); i++ {
		switch b := data[i]; {
		case b == '"':
			return i + 1, plain
		case b == '\\':
			plain = false
			i++ // the escaped byte cannot end the string
		case b < 0x20 || b >= 0x80:
			plain = false
		}
	}
	return -1, false
}

// str decodes a string. A plain one is sliced out directly; any other is
// unquoted by encoding/json, which validates its escapes (json.Valid
// alone in check mode: it accepts exactly the string tokens
// json.Unmarshal does).
func (d *recordDecoder) str(dst *string) bool {
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return false
	}
	end, plain := stringEnd(d.data, d.pos)
	if end < 0 {
		return false
	}
	tok := d.data[d.pos:end]
	switch {
	case d.check:
		if !plain && !json.Valid(tok) {
			return false
		}
	case plain:
		*dst = string(tok[1 : len(tok)-1])
	default:
		var v string // declared here so only this path pays its escape
		if json.Unmarshal(tok, &v) != nil {
			return false
		}
		*dst = v
	}
	d.pos = end
	return true
}

// number slices out a literal that matches the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and reports whether it
// is a non-negative integer. Checking the grammar first matters: strconv
// also accepts forms JSON does not, such as NaN, Inf, hex floats and
// underscores.
func (d *recordDecoder) number() (lit []byte, unsigned, ok bool) {
	data, i := d.data, d.pos
	digits := func() int {
		start := i
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
		return i - start
	}
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	if n := digits(); n == 0 || (n > 1 && data[i-n] == '0') {
		return nil, false, false
	}
	integer := true
	if i < len(data) && data[i] == '.' {
		i++
		if digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	lit, d.pos = data[d.pos:i], i
	return lit, integer && !neg, true
}

// maxUint64 is the largest value a uint64 field takes, in decimal.
const maxUint64 = "18446744073709551615"

// uint decodes an unsigned integer that fits in 64 bits, which is what
// json.Unmarshal accepts for a uint64 field. Check mode compares the
// digits with maxUint64 instead of parsing them: the literal has no
// leading zero, so fewer digits always fit and as many fit when they
// are not greater lexically.
func (d *recordDecoder) uint(dst *uint64) bool {
	lit, unsigned, ok := d.number()
	switch {
	case !ok || !unsigned:
		return false
	case d.check:
		return len(lit) < len(maxUint64) || len(lit) == len(maxUint64) && string(lit) <= maxUint64
	}
	v, err := strconv.ParseUint(string(lit), 10, 64)
	*dst = v
	return err == nil
}

// float decodes a number that fits in a float64. Check mode skips the
// parse for a literal with no exponent and at most 308 bytes: its
// magnitude is below 1e308, so it always fits.
func (d *recordDecoder) float(dst *float64) bool {
	lit, _, ok := d.number()
	switch {
	case !ok:
		return false
	case d.check && len(lit) <= 308 && !bytes.ContainsAny(lit, "eE"):
		return true
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if !d.check {
		*dst = v
	}
	return err == nil
}

// byteMap decodes null, which leaves *dst nil, or an object of unsigned
// integers.
func (d *recordDecoder) byteMap(dst *map[string]uint64) bool {
	if d.lit("null") {
		return true
	}
	if !d.lit("{") {
		return false
	}
	var m map[string]uint64
	if !d.check {
		m = map[string]uint64{}
		*dst = m
	}
	if d.lit("}") {
		return true
	}
	for {
		var k string
		var v uint64
		if !d.str(&k) || !d.lit(":") || !d.uint(&v) {
			return false
		}
		if !d.check {
			m[k] = v
		}
		if d.lit("}") {
			return true
		}
		if !d.lit(",") {
			return false
		}
	}
}

// counters decodes null, which leaves *dst nil, or a counter set with
// stats.ScanCountersJSON, the scanner behind
// stats.Counters.UnmarshalJSON, which also reports where the object ends.
func (d *recordDecoder) counters(dst **stats.Counters) bool {
	if d.lit("null") {
		return true
	}
	if d.pos >= len(d.data) || d.data[d.pos] != '{' {
		return false
	}
	var c *stats.Counters
	if !d.check {
		c = new(stats.Counters)
	}
	n, err := stats.ScanCountersJSON(d.data[d.pos:], c)
	if err != nil {
		return false
	}
	if !d.check {
		*dst = c
	}
	d.pos += n
	return true
}
