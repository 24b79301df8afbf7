package chaos

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// ParseSpec builds an Injector from the compact flag form the binaries
// accept (cachecraft-serve -chaos, cachecraft-worker -chaos):
//
//	seed=7;store.put:error:0.2;worker.exec:crash:0.05;serve.request:latency:0.5,delay=5ms
//
// Semicolons separate items. One optional item is "seed=N" (default 1);
// every other item is a rule:
//
//	SITE:KIND:P[,key=value...]
//
// with SITE the name of a wired Site (store.get, store.put, store.sync,
// worker.lease, worker.heartbeat, worker.complete, worker.exec,
// serve.request), KIND one of error, latency, crash, partition, P a
// probability in [0,1], and optional comma-separated modifiers
// delay=DURATION (latency rules), match=SUBSTRING, after=N, and limit=N.
// An empty spec returns a nil injector — chaos off.
func ParseSpec(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var (
		seed  uint64 = 1
		rules []Rule
	)
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if v, ok := strings.CutPrefix(item, "seed="); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed %q: %v", v, err)
			}
			seed = n
			continue
		}
		r, err := parseRule(item)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("chaos: spec %q arms no rules", spec)
	}
	return New(seed, rules...), nil
}

func parseRule(item string) (Rule, error) {
	head, mods, _ := strings.Cut(item, ",")
	parts := strings.Split(head, ":")
	if len(parts) != 3 {
		return Rule{}, fmt.Errorf("chaos: rule %q is not SITE:KIND:P", item)
	}
	r := Rule{Site: Site(parts[0])}
	if !slices.Contains(sites, r.Site) {
		return Rule{}, fmt.Errorf("chaos: rule %q: unknown site %q", item, parts[0])
	}
	switch parts[1] {
	case "error":
		r.Kind = KindError
	case "latency":
		r.Kind = KindLatency
	case "crash":
		r.Kind = KindCrash
	case "partition":
		r.Kind = KindPartition
	default:
		return Rule{}, fmt.Errorf("chaos: rule %q: unknown kind %q", item, parts[1])
	}
	p, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || p < 0 || p > 1 {
		return Rule{}, fmt.Errorf("chaos: rule %q: probability %q not in [0,1]", item, parts[2])
	}
	r.P = p
	if mods != "" {
		for _, mod := range strings.Split(mods, ",") {
			k, v, ok := strings.Cut(mod, "=")
			if !ok {
				return Rule{}, fmt.Errorf("chaos: rule %q: modifier %q is not key=value", item, mod)
			}
			switch k {
			case "delay":
				d, err := time.ParseDuration(v)
				if err != nil {
					return Rule{}, fmt.Errorf("chaos: rule %q: bad delay: %v", item, err)
				}
				r.Delay = d
			case "match":
				r.Match = v
			case "after":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return Rule{}, fmt.Errorf("chaos: rule %q: bad after %q", item, v)
				}
				r.After = n
			case "limit":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return Rule{}, fmt.Errorf("chaos: rule %q: bad limit %q", item, v)
				}
				r.Limit = n
			default:
				return Rule{}, fmt.Errorf("chaos: rule %q: unknown modifier %q", item, k)
			}
		}
	}
	if r.Kind == KindLatency && r.Delay <= 0 {
		return Rule{}, fmt.Errorf("chaos: rule %q: latency rules need delay=", item)
	}
	return r, nil
}
