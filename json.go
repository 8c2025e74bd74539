package orion

import (
	"encoding/json"
	"fmt"
)

// Enum spellings live here, once per enum type: the canonical names,
// indexed by value (what String and marshalling write), plus the
// aliases the command-line flags have always accepted. JSON config
// files (cmd/orion's -config) and the flags (internal/cliconfig) parse
// through the same tables, so they accept the same names.

// enumText is one enum type's spelling table.
type enumText[T ~int] struct {
	what, typ string
	names     []string
	parse     map[string]T
}

func newEnumText[T ~int](what, typ string, names []string, aliases map[string]T) *enumText[T] {
	e := &enumText[T]{what: what, typ: typ, names: names, parse: aliases}
	for i, name := range names {
		e.parse[name] = T(i)
	}
	return e
}

func (e *enumText[T]) string(v T) string {
	if v >= 0 && int(v) < len(e.names) {
		return e.names[v]
	}
	return fmt.Sprintf("%s(%d)", e.typ, int(v))
}

func (e *enumText[T]) unmarshalText(dst *T, text []byte) error {
	v, ok := e.parse[string(text)]
	if !ok {
		return fmt.Errorf("orion: unknown %s %q", e.what, text)
	}
	*dst = v
	return nil
}

// unmarshalJSON accepts a JSON string name or, for backward
// compatibility, a bare integer.
func (e *enumText[T]) unmarshalJSON(dst *T, data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		var v int
		if err2 := json.Unmarshal(data, &v); err2 == nil {
			*dst = T(v)
			return nil
		}
		return fmt.Errorf("orion: %s: %w", e.what, err)
	}
	return e.unmarshalText(dst, []byte(s))
}

var (
	routerKindText = newEnumText("router kind", "RouterKind",
		[]string{"virtual-channel", "wormhole", "central-buffered"},
		map[string]RouterKind{"vc": VirtualChannel, "wh": Wormhole, "cb": CentralBuffered})
	patternKindText = newEnumText("traffic pattern", "PatternKind",
		[]string{"uniform", "broadcast", "transpose", "bit-complement", "tornado", "hotspot", "neighbor"},
		map[string]PatternKind{"bitcomp": PatternBitComplement})
	arbiterKindText = newEnumText("arbiter kind", "ArbiterKind",
		[]string{"matrix", "round-robin", "queuing"},
		map[string]ArbiterKind{"roundrobin": RoundRobinArbiter, "rr": RoundRobinArbiter})
	deadlockModeText = newEnumText("deadlock mode", "DeadlockMode",
		[]string{"bubble", "dateline", "none"}, map[string]DeadlockMode{})
	faultKindText = newEnumText("fault kind", "FaultKind",
		[]string{"link-stall", "link-drop", "port-stall", "bit-flip"},
		map[string]FaultKind{"bitflip": FaultBitFlip})
	invariantModeText = newEnumText("invariant mode", "InvariantMode",
		[]string{"auto", "on", "off"}, map[string]InvariantMode{})
)

// String implements fmt.Stringer.
func (k RouterKind) String() string { return routerKindText.string(k) }

// MarshalText implements encoding.TextMarshaler.
func (k RouterKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *RouterKind) UnmarshalText(text []byte) error { return routerKindText.unmarshalText(k, text) }

// UnmarshalJSON implements json.Unmarshaler.
func (k *RouterKind) UnmarshalJSON(data []byte) error { return routerKindText.unmarshalJSON(k, data) }

// String implements fmt.Stringer.
func (k PatternKind) String() string { return patternKindText.string(k) }

// MarshalText implements encoding.TextMarshaler.
func (k PatternKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *PatternKind) UnmarshalText(text []byte) error { return patternKindText.unmarshalText(k, text) }

// UnmarshalJSON implements json.Unmarshaler.
func (k *PatternKind) UnmarshalJSON(data []byte) error { return patternKindText.unmarshalJSON(k, data) }

// String implements fmt.Stringer.
func (k ArbiterKind) String() string { return arbiterKindText.string(k) }

// MarshalText implements encoding.TextMarshaler.
func (k ArbiterKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *ArbiterKind) UnmarshalText(text []byte) error { return arbiterKindText.unmarshalText(k, text) }

// UnmarshalJSON implements json.Unmarshaler.
func (k *ArbiterKind) UnmarshalJSON(data []byte) error { return arbiterKindText.unmarshalJSON(k, data) }

// String implements fmt.Stringer.
func (m DeadlockMode) String() string { return deadlockModeText.string(m) }

// MarshalText implements encoding.TextMarshaler.
func (m DeadlockMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *DeadlockMode) UnmarshalText(text []byte) error {
	return deadlockModeText.unmarshalText(m, text)
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *DeadlockMode) UnmarshalJSON(data []byte) error {
	return deadlockModeText.unmarshalJSON(m, data)
}

// String implements fmt.Stringer.
func (k FaultKind) String() string { return faultKindText.string(k) }

// MarshalText implements encoding.TextMarshaler.
func (k FaultKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *FaultKind) UnmarshalText(text []byte) error { return faultKindText.unmarshalText(k, text) }

// UnmarshalJSON implements json.Unmarshaler.
func (k *FaultKind) UnmarshalJSON(data []byte) error { return faultKindText.unmarshalJSON(k, data) }

// String implements fmt.Stringer.
func (m InvariantMode) String() string { return invariantModeText.string(m) }

// MarshalText implements encoding.TextMarshaler.
func (m InvariantMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *InvariantMode) UnmarshalText(text []byte) error {
	return invariantModeText.unmarshalText(m, text)
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *InvariantMode) UnmarshalJSON(data []byte) error {
	return invariantModeText.unmarshalJSON(m, data)
}

// LoadConfigJSON parses and validates a Config from JSON. Enum fields
// accept their string names ("wormhole", "broadcast", "bubble",
// "link-stall", ...). The returned configuration has passed
// Config.Validate, so structural mistakes in a config file surface here —
// aggregated, with field-qualified messages — not mid-sweep.
func LoadConfigJSON(data []byte) (Config, error) {
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return Config{}, fmt.Errorf("orion: parsing config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// ConfigJSON renders a Config as indented JSON with string enum names.
func ConfigJSON(cfg Config) ([]byte, error) {
	return json.MarshalIndent(cfg, "", "  ")
}
