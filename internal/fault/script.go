package fault

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// eventWire is the JSON form of an Event, with the kind as its string
// name so scripts are self-describing and stable across enum reordering.
type eventWire struct {
	Kind     string  `json:"kind"`
	Site     int     `json:"site"`
	Peer     int     `json:"peer,omitempty"`
	Start    int     `json:"start"`
	End      int     `json:"end"`
	Severity float64 `json:"severity,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventWire{
		Kind: e.Kind.String(), Site: e.Site, Peer: e.Peer,
		Start: e.Start, End: e.End, Severity: e.Severity,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *Event) UnmarshalJSON(b []byte) error {
	var w eventWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	k, err := KindFromString(w.Kind)
	if err != nil {
		return err
	}
	*e = Event{Kind: k, Site: w.Site, Peer: w.Peer, Start: w.Start, End: w.End, Severity: w.Severity}
	return nil
}

// LoadScript reads a JSON fault script from disk.
func LoadScript(path string) (*Script, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: read script: %w", err)
	}
	var s Script
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("fault: parse script %s: %w", path, err)
	}
	return &s, nil
}

// ParseSpec parses a compact command-line fault spec: a comma-separated
// list of events of the form
//
//	kind:site[:peer]@start-end[=severity]
//
// e.g. "site_blackout:0@12-16,solver_slowdown:-1@0-28=50". Kind may be
// the full name or a short alias (blackout, brownout, cut, degraded,
// bust, slow). Site -1 (or "*") wildcards.
func ParseSpec(spec string) (*Script, error) {
	var s Script
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		e, err := parseSpecEvent(part)
		if err != nil {
			return nil, err
		}
		s.Events = append(s.Events, e)
	}
	if len(s.Events) == 0 {
		return nil, fmt.Errorf("fault: empty spec %q", spec)
	}
	return &s, nil
}

var kindAliases = map[string]Kind{
	"blackout": SiteBlackout, "brownout": SiteBrownout,
	"cut": WANCut, "degraded": WANDegraded,
	"bust": ForecastBust, "slow": SolverSlowdown,
}

func parseSpecEvent(part string) (Event, error) {
	bad := func(why string) (Event, error) {
		return Event{}, fmt.Errorf("fault: spec %q: %s (want kind:site[:peer]@start-end[=severity])", part, why)
	}
	head, rest, ok := strings.Cut(part, "@")
	if !ok {
		return bad("missing @window")
	}
	var e Event
	if sev, after, found := cutLast(rest, "="); found {
		v, err := strconv.ParseFloat(after, 64)
		if err != nil {
			return bad("bad severity")
		}
		e.Severity = v
		rest = sev
	}
	lo, hi, ok := strings.Cut(rest, "-")
	if !ok {
		return bad("window needs start-end")
	}
	var err error
	if e.Start, err = strconv.Atoi(strings.TrimSpace(lo)); err != nil {
		return bad("bad start step")
	}
	if e.End, err = strconv.Atoi(strings.TrimSpace(hi)); err != nil {
		return bad("bad end step")
	}
	fields := strings.Split(head, ":")
	if len(fields) < 2 || len(fields) > 3 {
		return bad("want kind:site or kind:site:peer")
	}
	k, kerr := KindFromString(fields[0])
	if kerr != nil {
		alias, ok := kindAliases[fields[0]]
		if !ok {
			return bad("unknown kind " + fields[0])
		}
		k = alias
	}
	e.Kind = k
	if e.Site, err = parseSite(fields[1]); err != nil {
		return bad("bad site")
	}
	if len(fields) == 3 {
		if e.Peer, err = parseSite(fields[2]); err != nil {
			return bad("bad peer")
		}
	}
	return e, nil
}

func parseSite(s string) (int, error) {
	s = strings.TrimSpace(s)
	if s == "*" {
		return -1, nil
	}
	return strconv.Atoi(s)
}

// cutLast splits on the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}
