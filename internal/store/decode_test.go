package store

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"cachecraft/internal/config"
	"cachecraft/internal/version"
)

// checkDecode asserts decodeRecord's contract on one body: checkRecord
// accepts it exactly when decodeRecord does, and whenever they accept,
// json.Unmarshal accepts too and yields an identical record. With
// mustAccept the body is an EncodeRecord output and must be accepted.
func checkDecode(t *testing.T, body []byte, mustAccept bool) {
	t.Helper()
	got, ok := decodeRecord(body)
	if checked := checkRecord(body); checked != ok {
		t.Fatalf("checkRecord = %v, decodeRecord = %v:\n%s", checked, ok, body)
	}
	if !ok {
		if mustAccept {
			t.Fatalf("canonical body rejected:\n%s", body)
		}
		return
	}
	var want Record
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("decodeRecord accepted a body json.Unmarshal rejects (%v):\n%s", err, body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeRecord = %+v\njson.Unmarshal = %+v\nbody:\n%s", got, want, body)
	}
}

// canonicalBody is EncodeRecord's body for rec.
func canonicalBody(tb testing.TB, rec Record) string {
	tb.Helper()
	body, _, err := EncodeRecord(rec)
	if err != nil {
		tb.Fatal(err)
	}
	return string(body)
}

// TestDecodeRecordShapes runs decodeRecord over edits of a canonical body:
// the canonical shapes it must accept (escaped strings, null and empty
// maps and counter sets, exponents) and near misses it must reject,
// including JSON that json.Unmarshal would accept in another layout.
func TestDecodeRecordShapes(t *testing.T) {
	base := canonicalBody(t, record(Fingerprint(config.Quick(), "stream", "none"), 7))
	edit := func(old, new string) string {
		if !strings.Contains(base, old) {
			t.Fatalf("base body lacks %q", old)
		}
		return strings.Replace(base, old, new, 1)
	}
	accept := map[string]string{
		"canonical":         base,
		"escaped workload":  edit(`"workload":"stream"`, `"workload":"stream\n\"<"`),
		"utf-8 scheme":      edit(`"Scheme":"none"`, `"Scheme":"nöne é"`),
		"null DRAMBytes":    edit(`{"demand":448,"redundancy":56}`, `null`),
		"empty DRAMBytes":   edit(`{"demand":448,"redundancy":56}`, `{}`),
		"escaped map key":   edit(`"demand":448`, `"dem\"and}":448`),
		"empty counters":    edit(`{"zeta":7,"alpha":8}`, `{}`),
		"counter key brace": edit(`"zeta":7`, `"ze}ta\"":7`),
		"null counters":     edit(`"Machine":{"zeta":7,"alpha":8}`, `"Machine":null`),
		"exponent float":    edit(`"IPC":0.1`, `"IPC":-1.5E-300`),
		"large uint":        edit(`"Cycles":42007`, `"Cycles":18446744073709551615`),
		"20-digit uint":     edit(`"Cycles":42007`, `"Cycles":10000000000000000000`),
	}
	for name, body := range accept {
		t.Run("accept/"+name, func(t *testing.T) { checkDecode(t, []byte(body), true) })
	}
	reject := map[string]string{
		"whitespace":         edit(`"sim":`, `"sim": `),
		"reordered":          edit(`"workload":"stream","scheme":"none"`, `"scheme":"none","workload":"stream"`),
		"key case":           edit(`"Cycles"`, `"cycles"`),
		"trailing bytes":     base + " ",
		"truncated":          base[:len(base)-1],
		"NaN":                edit(`"IPC":0.1`, `"IPC":NaN`),
		"Inf":                edit(`"IPC":0.1`, `"IPC":Inf`),
		"hex float":          edit(`"IPC":0.1`, `"IPC":0x1p-3`),
		"underscore":         edit(`"Cycles":42007`, `"Cycles":42_007`),
		"leading zero":       edit(`"Cycles":42007`, `"Cycles":042007`),
		"bare point":         edit(`"IPC":0.1`, `"IPC":.1`),
		"float overflow":     edit(`"IPC":0.1`, `"IPC":1e400`),
		"uint overflow":      edit(`"Cycles":42007`, `"Cycles":18446744073709551616`),
		"uint 21 digits":     edit(`"Cycles":42007`, `"Cycles":100000000000000000000`),
		"map uint overflow":  edit(`"demand":448`, `"demand":99999999999999999999`),
		"negative uint":      edit(`"Cycles":42007`, `"Cycles":-1`),
		"fractional uint":    edit(`"Cycles":42007`, `"Cycles":42007.0`),
		"null float":         edit(`"IPC":0.1`, `"IPC":null`),
		"null map value":     edit(`"demand":448`, `"demand":null`),
		"bad escape":         edit(`"workload":"stream"`, `"workload":"str\qeam"`),
		"control byte":       edit(`"workload":"stream"`, "\"workload\":\"str\x01eam\""),
		"unterminated key":   edit(`"zeta":7,"alpha":8}`, `"zeta":7,"alpha`),
		"counter trailer":    edit(`"alpha":8}`, `"alpha":8 x}`),
		"counters as list":   edit(`{"zeta":7,"alpha":8}`, `[7,8]`),
		"duplicate result":   edit(`,"BusUtilization":0}}`, `,"BusUtilization":0,"BusUtilization":1}}`),
		"missing field":      edit(`"DRAMRowConfl":0,`, ``),
		"nested map":         edit(`"demand":448`, `"demand":{"x":1}`),
		"unquoted map key":   edit(`"demand":448`, `demand:448`),
		"trailing map comma": edit(`"redundancy":56}`, `"redundancy":56,}`),
	}
	for name, body := range reject {
		t.Run("reject/"+name, func(t *testing.T) {
			if _, ok := decodeRecord([]byte(body)); ok {
				t.Fatalf("accepted:\n%s", body)
			}
			if checkRecord([]byte(body)) {
				t.Fatalf("checkRecord accepted:\n%s", body)
			}
		})
	}
}

// FuzzDecodeRecord checks the hand-written decoder against encoding/json:
// any body it accepts must decode under json.Unmarshal to the identical
// record, and the canonical re-encoding of anything json.Unmarshal reads
// as a record must be accepted. checkRecord must accept exactly the
// bodies decodeRecord does, and a body whose raw identity prefix names a
// fingerprint must pass hasIdentity for it exactly when it decodes to
// that fingerprint and this revision, which is what lets Get and GetRaw
// skip comparing the decoded identity.
func FuzzDecodeRecord(f *testing.F) {
	for _, cell := range [][2]string{{"random", "cachecraft"}, {"stream", "none"}, {"spmv", "inline-naive"}} {
		f.Add([]byte(canonicalBody(f, simulatedRecord(f, cell[0], cell[1]))))
	}
	base := canonicalBody(f, record(Fingerprint(config.Quick(), "stream", "none"), 7))
	f.Add([]byte(base))
	f.Add([]byte(strings.Replace(base, `"workload":"stream"`, `"workload":"stream<"`, 1)))
	f.Add([]byte(strings.Replace(base, `"zeta":7`, `"z\"}":7 `, 1)))
	f.Add([]byte(strings.Replace(base, `"IPC":0.1`, `"IPC":1e-7`, 1)))
	f.Add([]byte(strings.Replace(base, `"fingerprint":"`, `"fingerprint":"\\\\`, 1)))
	f.Add([]byte(strings.Replace(base, `"fingerprint":"`, `"fingerprint":"é`, 1)))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, false)
		checkIdentity(t, body)
		var rec Record
		if json.Unmarshal(body, &rec) != nil {
			return
		}
		canon, _, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("a decoded record does not encode: %v", err)
		}
		checkDecode(t, canon, true)
	})
}

// checkIdentity takes the fingerprint a body's raw identity prefix names
// and asserts that, on a body decodeRecord accepts, hasIdentity holds for
// it exactly when the raw prefix matches and the body decodes to that
// fingerprint and this revision.
func checkIdentity(t *testing.T, body []byte) {
	t.Helper()
	const head = `{"fingerprint":"`
	rest, found := bytes.CutPrefix(body, []byte(head))
	i := bytes.Index(rest, []byte(identityTail))
	if !found || i < 0 {
		return
	}
	fp := string(rest[:i])
	rec, ok := decodeRecord(body)
	if !ok {
		return
	}
	want := rec.Fingerprint == fp && rec.Sim == version.String()
	if got := hasIdentity(body, fp); got != want {
		t.Fatalf("hasIdentity(%q) = %v, decoded fingerprint %q sim %q:\n%s", fp, got, rec.Fingerprint, rec.Sim, body)
	}
}
