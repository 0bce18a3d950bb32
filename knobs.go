package gpusecmem

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"
)

// DefaultCycles is the horizon of a run that names none: the default of
// secmemsim -cycles, /api/run, experiments -cycles and Options.Cycles.
const DefaultCycles = 24000

// knobs is the one run-configuration table. secmemsim's flags
// (RunArgs.BindFlags) and the secmemd queries (ResolveQuery,
// OptionsFromQuery) are adapters over it. A value is checked when it is
// set, so a bad one is an error even where its knob does not apply;
// Resolve then applies the set knobs, in table order, to the preset.
var knobs = []knob{
	{name: "scheme", help: "secure-memory `scheme`: " + strings.Join(SchemeNames(), "|"), def: "ctr_mac_bmt",
		apply: func(r *RunRequest, v string) (err error) {
			r.Scheme = v
			r.Config, err = ConfigForScheme(v)
			return err
		}},
	{name: "bench", help: "`benchmark` name (Table IV)", def: "fdtd2d",
		apply: func(r *RunRequest, v string) error { r.Benchmark = v; return nil }},
	{name: "cycles", help: "simulated `cycles`", def: strconv.Itoa(DefaultCycles), option: true,
		apply: func(r *RunRequest, v string) (err error) {
			if r.Config.MaxCycles, err = strconv.ParseUint(v, 10, 64); err == nil && r.Config.MaxCycles == 0 {
				err = errors.New("must be positive")
			}
			return err
		}},
	{name: "aes-latency", help: "AES latency in `cycles` (unset = scheme default)", secureOnly: true,
		apply: intKnob(func(c *Config, n int) error { c.Secure.AESLatency = n; return nil })},
	{name: "aes-engines", help: "AES `engines` per partition (unset = scheme default)", secureOnly: true,
		apply: intKnob(func(c *Config, n int) error { c.Secure.AESEngines = n; return nil })},
	{name: "meta-kb", help: "metadata cache `KB` per type (0 or unset = scheme default)", secureOnly: true,
		apply: intKnob(func(c *Config, n int) error {
			if n == 0 {
				return nil
			}
			return c.SetMetaCacheKB(n)
		})},
	{name: "mshrs", help: "`MSHRs` per metadata cache (unset = scheme default)", secureOnly: true,
		apply: intKnob(func(c *Config, n int) error { c.Secure.MetaMSHRs = n; return nil })},
	{name: "unified", help: "use a unified metadata cache (unset = scheme default)", secureOnly: true, isBool: true,
		apply: boolKnob(func(c *Config) *bool { return &c.Secure.Unified })},
	{name: "audit", help: "run per-cycle invariant auditors", isBool: true, option: true,
		apply: boolKnob(func(c *Config) *bool { return &c.Audit })},
}

type knob struct {
	name, help, def string // def: an unset knob's value ("" = the preset's)
	secureOnly      bool   // never changes a scheme without encryption
	isBool          bool   // a switch on the command line: -audit means -audit=true
	option          bool   // also an experiment Option (OptionsFromQuery)
	apply           func(r *RunRequest, v string) error
}

// intKnob parses a non-negative decimal count or latency.
func intKnob(set func(*Config, int) error) func(*RunRequest, string) error {
	return func(r *RunRequest, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return cmp.Or(err, errors.New("must be >= 0"))
		}
		return set(&r.Config, n)
	}
}

// boolKnob parses v with strconv.ParseBool.
func boolKnob(field func(*Config) *bool) func(*RunRequest, string) error {
	return func(r *RunRequest, v string) (err error) {
		*field(&r.Config), err = strconv.ParseBool(v)
		return err
	}
}

// A RunRequest is one run named through the knob table: the scheme,
// the benchmark, and the scheme's preset with the set knobs applied.
type RunRequest struct {
	Scheme, Benchmark string
	Config            Config
}

// RunArgs maps knob names to the values set for them; make one with
// RunArgs{}.
type RunArgs map[string]string

// set checks v on the default preset, where every knob applies, then
// records it.
func (a RunArgs) set(k *knob, v string) error {
	if err := k.apply(&RunRequest{Config: SecureMemConfig()}, v); err != nil {
		return err
	}
	a[k.name] = v
	return nil
}

// Resolve builds the request: the scheme's preset, then every set knob
// that applies to it, then the benchmark check, then Config.Validate.
func (a RunArgs) Resolve() (r RunRequest, err error) {
	for _, k := range knobs {
		v := a[k.name]
		if v == "" {
			v = k.def
		}
		if v == "" || k.secureOnly && r.Config.Secure.Encryption == EncNone {
			continue
		}
		if err := k.apply(&r, v); err != nil {
			return r, err
		}
	}
	if err := CheckBenchmark(r.Benchmark); err != nil {
		return r, err
	}
	return r, r.Config.Validate()
}

// BindFlags defines one flag per knob on fs. A flag left out stays
// unset, so its default never overrides a preset.
func (a RunArgs) BindFlags(fs *flag.FlagSet) {
	for _, k := range knobs {
		fs.Var(knobFlag{a, k}, k.name, k.help)
	}
}

type knobFlag struct {
	a RunArgs
	k knob
}

func (f knobFlag) String() string     { return f.k.def }
func (f knobFlag) Set(v string) error { return f.a.set(&f.k, v) }
func (f knobFlag) IsBoolFlag() bool   { return f.k.isBool }

// ResolveQuery resolves an /api/run query. An empty value leaves its
// knob unset; a bad value, a repeated key or a key that names no knob
// is an error.
func ResolveQuery(q url.Values) (RunRequest, error) {
	a := RunArgs{}
	for name, vs := range q {
		i := slices.IndexFunc(knobs, func(k knob) bool { return k.name == name })
		switch {
		case i < 0:
			return RunRequest{}, fmt.Errorf("unknown query key %q", name)
		case len(vs) != 1:
			return RunRequest{}, fmt.Errorf("query key %q given %d times", name, len(vs))
		case vs[0] == "":
			continue
		}
		if err := a.set(&knobs[i], vs[0]); err != nil {
			return RunRequest{}, fmt.Errorf("bad %s %q: %v", name, vs[0], err)
		}
	}
	return a.Resolve()
}

// OptionsFromQuery reads the experiment-wide knobs, cycles and audit,
// from q as ResolveQuery does; q's other keys are the caller's.
func OptionsFromQuery(q url.Values) (Options, error) {
	opts := url.Values{}
	for _, k := range knobs {
		if vs, ok := q[k.name]; ok && k.option {
			opts[k.name] = vs
		}
	}
	r, err := ResolveQuery(opts)
	return Options{Cycles: r.Config.MaxCycles, Audit: r.Config.Audit}, err
}

// CheckBenchmark reports an error unless name is a Table IV benchmark.
func CheckBenchmark(name string) error {
	if !slices.Contains(Benchmarks(), name) {
		return fmt.Errorf("gpusecmem: unknown benchmark %q (known: %s)", name, strings.Join(Benchmarks(), " "))
	}
	return nil
}
