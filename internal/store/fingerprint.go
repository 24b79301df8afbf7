package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"

	"cachecraft/internal/config"
	"cachecraft/internal/version"
)

// Fingerprint computes the canonical content address of one simulation:
// the SHA-256 of the canonical JSON encoding of (simulator identity, full
// GPU configuration, workload name, scheme name). Two processes — or two
// runs of the same process — that would execute an identical simulation
// therefore agree on the fingerprint, and any difference anywhere in the
// configuration, in the workload or scheme, or in the simulator revision
// yields a different address. docs/MODEL.md documents the
// canonicalization rules.
func Fingerprint(cfg config.GPU, workload, scheme string) string {
	return fingerprint(version.String(), cfg, workload, scheme)
}

// fingerprint is Fingerprint with the simulator identity explicit, so the
// version-sensitivity of the address is testable.
func fingerprint(simID string, cfg config.GPU, workload, scheme string) string {
	return newPayloadPrefix(simID, cfg).sum(workload, scheme)
}

// Fingerprinter returns Fingerprint on cfg as a function of the workload
// and scheme. It encodes cfg once, so the fingerprints of many cells on
// one configuration cost one hash each. The function is safe for
// concurrent use.
func Fingerprinter(cfg config.GPU) func(workload, scheme string) string {
	return newPayloadPrefix(version.String(), cfg).sum
}

// fingerprint is Fingerprint through the handle's one-entry prefix: a
// run of calls on one configuration encodes it once. A caller with a
// different configuration replaces the entry; concurrent callers that
// race on it at worst encode their configuration again.
func (s *Store) fingerprint(cfg config.GPU, workload, scheme string) string {
	last := s.last.Load()
	if last == nil || last.cfg != cfg {
		last = &cfgPrefix{cfg: cfg, prefix: newPayloadPrefix(version.String(), cfg)}
		s.last.Store(last)
	}
	return last.prefix.sum(workload, scheme)
}

// cfgPrefix pairs a configuration with its fingerprint payload prefix.
type cfgPrefix struct {
	cfg    config.GPU
	prefix payloadPrefix
}

// payloadPrefix is the hashed payload up to the workload value. The
// payload is the JSON object {"sim":…,"config":…,"workload":…,"scheme":…},
// each value encoded as encoding/json encodes it; config.GPU is a tree of
// exported scalar fields, so struct-field declaration order makes the
// encoding canonical and infallible.
type payloadPrefix []byte

func newPayloadPrefix(simID string, cfg config.GPU) payloadPrefix {
	enc, err := json.Marshal(cfg)
	if err != nil {
		panic("store: fingerprint payload not marshalable: " + err.Error())
	}
	p := appendJSONString(append(make([]byte, 0, len(enc)+len(simID)+32), `{"sim":`...), simID)
	return append(append(append(p, `,"config":`...), enc...), `,"workload":`...)
}

// sum completes the payload with workload and scheme and hashes it.
func (p payloadPrefix) sum(workload, scheme string) string {
	b := append(make([]byte, 0, len(p)+len(workload)+len(scheme)+16), p...)
	b = appendJSONString(append(appendJSONString(b, workload), `,"scheme":`...), scheme)
	sum := sha256.Sum256(append(b, '}'))
	return hex.EncodeToString(sum[:])
}

// appendJSONString appends s as encoding/json encodes it. Printable ASCII
// other than the quote, the backslash, '<', '>' and '&' (every registered
// name) encodes as itself in quotes; anything else goes through
// encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || strings.IndexByte(`"\\<>&`, c) >= 0 {
			enc, _ := json.Marshal(s) // a string always encodes
			return append(b, enc...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
