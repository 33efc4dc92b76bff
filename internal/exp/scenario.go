// Declarative scenario files: a JSON spelling of a Spec, so new
// topologies are a data file rather than a new driver. There is one
// schema, the Spec's own: a key is a Spec field — its `spec` struct tag —
// and the key's suffix is the unit the file writes it in:
//
//   - _s and _ms on a sim.Time (the Go value is nanoseconds);
//   - mbps on a bit rate the Go value holds in bits/sec (a field whose Go
//     name already ends in Mbps, like BackgroundSpec.RateMbps, keeps the
//     number);
//   - kb on a byte count (1 kb = 1024 bytes);
//   - anything else is the Go value itself (per_s, chunk_s and the other
//     float seconds included).
//
// A struct the file flattens is inlined into its parent's keys: an edge's
// link, a link's impairments (topo.Impairments), trace generator
// (trace.Generator), Wi-Fi MCS (wifi.MCS) and attack target, a qdisc's
// router configuration (dt_ms, lie; a zero field takes the paper's
// default) and an app's ABR and RPC configurations. An interface-valued
// field — a workload's arrival and size — is an object whose "kind"
// names the value's type. Unknown keys are an error, and a Spec encodes
// back to the same keys: parseScenario of a Scenario's JSON deep-equals
// it.
//
// parseScenario only decodes; whether the Spec is valid is Check's (and
// Run's) judgement, the one Go callers get too: validate.go range-checks
// it, the run pipeline builds it, and it is valid iff it builds. Schemes
// and qdisc kinds resolve through the registries, so a file can name
// anything a package has registered.
//
// Spellings that changed when the file became the Spec's own, and keys a
// Spec field made spellable:
//
//   - a flow's "rate_mbps" shorthand is gone: write
//     "source": {"kind": "rate", "mbps": 1.2};
//   - a workload's arrival is always an object holding its own
//     parameters: {"kind": "poisson", "per_s": 4} (was "arrival":
//     "poisson" beside "per_s"; an absent arrival is no longer Poisson)
//     and {"kind": "deterministic", "gap_ms": 250} (was per_s);
//   - a Wi-Fi link takes "mcs_walk" ("alternating" or "brownian") and
//     "mcs_seed" beside the fixed "mcs".
//
// The format:
//
//	{
//	  "name": "congested-uplink",
//	  "seed": 1,
//	  "duration_s": 30,
//	  "warmup_s": 4,
//	  "rtt_ms": 100,
//	  "sample_ms": 0,
//	  "links": [
//	    {"kind": "trace", "trace": "Verizon1",
//	     "qdisc": {"kind": "auto", "buffer": 250}}
//	  ],
//	  "reverse_links": [
//	    {"kind": "rate", "rate_mbps": 2, "delay_ms": 5,
//	     "loss": 0.01, "qdisc": {"kind": "droptail", "buffer": 100}}
//	  ],
//	  "flows": [
//	    {"scheme": "ABC"},
//	    {"scheme": "Cubic", "dir": "reverse", "start_s": 5,
//	     "source": {"kind": "rate", "mbps": 1.2}}
//	  ]
//	}
//
// Link kinds (LinkSpec): "trace" (a named cellular corpus trace, or
// steps_mbps/step_ms, or square_low_mbps/square_high_mbps/square_half_ms),
// "rate" (rate_mbps) and "wifi" (mcs, or mcs_walk/mcs_seed, and estimate
// for the §4.1 estimator); "" infers the kind from the keys set. Every
// link takes delay_ms, lookahead_ms, jitter_ms, loss, burst_loss/
// burst_p_bad/burst_p_good, an attack and a qdisc naming any registered
// kind. Flows (FlowSpec) take scheme,
// start_s/stop_s, dir ("forward"/"reverse"), enter_at/exit_at, rtt_ms,
// misbehave ("greedy"), a source ({"kind": "rate"|"onoff"|"fixed"} with
// mbps, on_s/off_s/start_s or bytes; a flow without one is backlogged)
// or an app binding a closed-loop application:
//
//	{"scheme": "ABC", "app": {"kind": "abr", "ladder_kbps": [300, 1200]}}
//	{"scheme": "ABC", "app": {"kind": "rpc", "resp_kb": 100, "think_ms": 200}}
//
// Workloads (WorkloadSpec) spawn finite flows mid-run from an open-loop
// arrival process and report FCT statistics:
//
//	"workloads": [
//	  {"scheme": "Cubic", "class": "web",
//	   "arrival": {"kind": "poisson", "per_s": 4},
//	   "size": {"kind": "pareto", "min_kb": 10, "max_kb": 1024, "alpha": 1.2},
//	   "ref_mbps": 9}
//	]
//
// Size kinds: "fixed" (kb) and "pareto" (min_kb/max_kb/alpha). A
// {"kind": "replay", "file": "arrivals.csv"} arrival replays a recorded
// (time_s, bytes) log, relative to the scenario file's directory: it
// fixes the sizes too, so "size" must be absent. Workloads route like
// flows and take start_s/stop_s, max_active and ref_mbps.
//
// Instead of the links/reverse_links chains, a scenario may declare a
// mesh: "nodes" names the junctions and "edges" the directed hops, each a
// link plus name/from/to (kind "wire" is a pure propagation edge: delay
// and impairments only). Mesh flows route by edge name — "path" for
// data, "ack_path" for ACKs (empty means an uncongested direct wire back)
// — instead of dir/enter_at/exit_at:
//
//	"nodes": ["gw", "ue", "sink"],
//	"edges": [
//	  {"name": "down", "from": "gw", "to": "ue",
//	   "kind": "rate", "rate_mbps": 24, "qdisc": {"kind": "auto"}},
//	  {"name": "up", "from": "ue", "to": "gw",
//	   "kind": "rate", "rate_mbps": 2, "qdisc": {"kind": "abc"}},
//	  {"name": "drain", "from": "gw", "to": "sink", "kind": "wire"}
//	],
//	"flows": [
//	  {"scheme": "ABC", "path": ["down"], "ack_path": ["up"]},
//	  {"scheme": "ABC", "path": ["up"], "ack_path": ["drain"],
//	   "source": {"kind": "rate", "mbps": 1.2}}
//	]
//
// Chain links are the edges "fwd<i>"/"rev<i>" between junctions of the
// same names, which is how events, backgrounds and shard_map address
// them. The rest of the top level: "events" (EventSpec: at_s, kind —
// reroute, set_rate, link_down, link_up, attack, clear_attack — flow,
// ack, path, edge, rate_mbps, attack), "routing" (RoutingSpec: policy, k,
// recompute_ms, drain_ms), "background"
// (BackgroundSpec: edge, kind, flows, rate_mbps, ramp_s, on_s, off_s,
// start_s, stop_s, step_ms), "shards" and "shard_map":
//
//	"events": [
//	  {"at_s": 10, "kind": "reroute", "flow": 0, "path": ["cell2", "air2"]},
//	  {"at_s": 12, "kind": "set_rate", "edge": "up", "rate_mbps": 1},
//	  {"at_s": 20, "kind": "attack", "edge": "fwd0",
//	   "attack": {"fraction": 0.5, "drop_rate": 0.05, "dir": "data"}}
//	],
//	"routing": {"policy": "kfailover", "k": 2, "drain_ms": 20},
//	"background": [
//	  {"edge": "fwd0", "kind": "onoff", "flows": 1000000,
//	   "rate_mbps": 48, "on_s": 6, "off_s": 4, "ramp_s": 2}
//	],
//	"shards": 2,
//	"shard_map": {"gw": 0, "sink": 1}
package exp

import (
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"

	"abc/internal/app"
	"abc/internal/sim"
	"abc/internal/trace"
)

// Scenario is a scenario file: a name, and the Spec whose keys sit beside
// it at the top level.
type Scenario struct {
	Name string `spec:"name"`
	Spec Spec   `spec:",inline"`
}

// LoadScenario reads and parses a scenario file. A relative replay log
// resolves against the file's directory.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := parseScenario(data)
	if err != nil {
		return nil, err
	}
	for i := range sc.Spec.Workloads {
		ws := &sc.Spec.Workloads[i]
		if rp, ok := ws.Arrival.(app.Replay); ok && rp.File != "" && !filepath.IsAbs(rp.File) {
			ws.Arrival = app.Replay{File: filepath.Join(filepath.Dir(path), rp.File)}
		}
	}
	return sc, nil
}

// parseScenario decodes a scenario. It judges only the file's shape —
// keys, types, kinds, units that fit — and leaves the Spec to Check.
func parseScenario(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	var sc Scenario
	if err := decodeValue(reflect.ValueOf(&sc).Elem(), raw, unit{}, ""); err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	return &sc, nil
}

// MarshalJSON encodes the scenario in the format parseScenario reads. It
// fails on what the format cannot say: a trace that no generator made, or
// a field the file has no key for set to anything but zero.
func (sc *Scenario) MarshalJSON() ([]byte, error) {
	obj := map[string]any{}
	if err := encodeFields(reflect.ValueOf(sc).Elem(), obj); err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	return json.Marshal(obj)
}

// unit turns a file number v into its Go value v / div * mul — in that
// order, the arithmetic the scenario compiler always used, so a time in
// ms lands on the nanosecond it always did. The zero unit keeps v.
type unit struct{ mul, div float64 }

func (u unit) of(v float64) float64 { return v / u.div * u.mul }

// inverse returns the number the file writes for the Go value x: the
// shortest decimal, else the float nearest x·div/mul, that decode maps
// back onto x exactly.
func (u unit) inverse(x float64, decode func(float64) float64) float64 {
	f := x / u.mul * u.div
	for p := 1; p < 17; p++ {
		if g, _ := strconv.ParseFloat(strconv.FormatFloat(f, 'g', p, 64), 64); decode(g) == x {
			return g
		}
	}
	for decode(f) < x {
		f = math.Nextafter(f, math.Inf(1))
	}
	for decode(f) > x {
		f = math.Nextafter(f, math.Inf(-1))
	}
	return f
}

var (
	timeType  = reflect.TypeOf(sim.Time(0))
	traceType = reflect.TypeOf((*trace.Trace)(nil))
)

// unitOf reads a field's unit off its key's suffix.
func unitOf(f reflect.StructField, key string) unit {
	t := f.Type
	if t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	switch {
	case t == timeType && strings.HasSuffix(key, "_ms"):
		return unit{1e9, 1e3}
	case t == timeType && strings.HasSuffix(key, "_s"):
		return unit{1e9, 1}
	case t == timeType:
		panic("exp: the sim.Time key " + key + " names no unit")
	case strings.HasSuffix(key, "mbps") && !strings.HasSuffix(f.Name, "Mbps"):
		return unit{1e6, 1}
	case strings.HasSuffix(key, "kb"):
		return unit{1024, 1}
	}
	return unit{}
}

// kinds names, by the file's "kind", the types an interface-valued field
// may hold.
var kinds = map[reflect.Type]map[string]reflect.Type{
	reflect.TypeOf((*app.Arrival)(nil)).Elem(): {
		"poisson":       reflect.TypeOf(app.Poisson{}),
		"deterministic": reflect.TypeOf(app.Deterministic{}),
		"replay":        reflect.TypeOf(app.Replay{}),
	},
	reflect.TypeOf((*app.SizeDist)(nil)).Elem(): {
		"fixed":  reflect.TypeOf(app.FixedSize{}),
		"pareto": reflect.TypeOf(app.BoundedPareto{}),
	},
}

// decodeValue sets v from raw, a value encoding/json decoded with
// UseNumber. A null leaves v zero, and an empty array or object leaves a
// slice or map nil, so that every decoded value encodes back to itself.
func decodeValue(v reflect.Value, raw any, u unit, path string) error {
	if raw == nil {
		return nil
	}
	if tu, ok := v.Addr().Interface().(encoding.TextUnmarshaler); ok {
		s, ok := raw.(string)
		if !ok {
			return mismatch(path, "a string", raw)
		}
		return at(path, tu.UnmarshalText([]byte(s)))
	}
	switch v.Kind() {
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		if err := decodeValue(p.Elem(), raw, u, path); err != nil {
			return err
		}
		v.Set(p)
	case reflect.Interface:
		obj, ok := raw.(map[string]any)
		if !ok {
			return mismatch(path, "an object", raw)
		}
		name, _ := obj["kind"].(string)
		t, ok := kinds[v.Type()][name]
		if !ok {
			return fmt.Errorf("%s: unknown kind %q (want %s)", path, name, strings.Join(sortedKeys(kinds[v.Type()]), ", "))
		}
		e := reflect.New(t).Elem()
		if err := decodeObject(e, obj, path, "kind"); err != nil {
			return err
		}
		v.Set(e)
	case reflect.Struct:
		obj, ok := raw.(map[string]any)
		if !ok {
			return mismatch(path, "an object", raw)
		}
		return decodeObject(v, obj, path)
	case reflect.Slice:
		arr, ok := raw.([]any)
		if !ok {
			return mismatch(path, "an array", raw)
		}
		if len(arr) == 0 {
			return nil
		}
		s := reflect.MakeSlice(v.Type(), len(arr), len(arr))
		for i, x := range arr {
			if err := decodeValue(s.Index(i), x, u, fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		v.Set(s)
	case reflect.Map:
		obj, ok := raw.(map[string]any)
		if !ok {
			return mismatch(path, "an object", raw)
		}
		if len(obj) == 0 {
			return nil
		}
		m := reflect.MakeMapWithSize(v.Type(), len(obj))
		for _, k := range sortedKeys(obj) {
			e := reflect.New(v.Type().Elem()).Elem()
			if err := decodeValue(e, obj[k], u, join(path, k)); err != nil {
				return err
			}
			m.SetMapIndex(reflect.ValueOf(k), e)
		}
		v.Set(m)
	case reflect.String:
		s, ok := raw.(string)
		if !ok {
			return mismatch(path, "a string", raw)
		}
		v.SetString(s)
	case reflect.Bool:
		b, ok := raw.(bool)
		if !ok {
			return mismatch(path, "a boolean", raw)
		}
		v.SetBool(b)
	case reflect.Int, reflect.Int64, reflect.Float64:
		n, ok := raw.(json.Number)
		if !ok {
			return mismatch(path, "a number", raw)
		}
		if v.Kind() != reflect.Float64 && u.mul == 0 {
			i, err := strconv.ParseInt(string(n), 10, 64)
			if err != nil {
				return fmt.Errorf("%s: %v is not an integer", path, n)
			}
			v.SetInt(i)
			return nil
		}
		f, err := n.Float64()
		if err != nil {
			return at(path, err)
		}
		if u.mul != 0 {
			f = u.of(f)
		}
		switch {
		case v.Kind() == reflect.Float64:
			v.SetFloat(f)
		case !(math.Abs(f) < math.MaxInt64) && v.Type() == timeType:
			return fmt.Errorf("%s: %v does not fit the clock", path, n)
		case !(math.Abs(f) < math.MaxInt64):
			return fmt.Errorf("%s: %v does not fit", path, n)
		default:
			v.SetInt(int64(f))
		}
	default:
		panic("exp: a Spec field of kind " + v.Kind().String())
	}
	return nil
}

// decodeObject sets struct v from obj, whose keys outside skip must all
// be fields of v or of the structs it inlines.
func decodeObject(v reflect.Value, obj map[string]any, path string, skip ...string) error {
	used := map[string]bool{}
	for _, k := range skip {
		used[k] = true
	}
	if err := decodeFields(v, obj, used, path); err != nil {
		return err
	}
	for _, k := range sortedKeys(obj) {
		if !used[k] {
			return at(path, fmt.Errorf("unknown field %q", k))
		}
	}
	return nil
}

// decodeFields sets v's keyed fields from obj, marking the keys used. An
// inlined struct reads its keys from obj too; an inlined pointer stays
// nil unless they set something, and a trace is made by the generator
// they describe.
func decodeFields(v reflect.Value, obj map[string]any, used map[string]bool, path string) error {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		key, ok := f.Tag.Lookup("spec")
		switch {
		case !ok || !f.IsExported():
		case key != ",inline":
			if raw, ok := obj[key]; ok {
				used[key] = true
				if err := decodeValue(fv, raw, unitOf(f, key), join(path, key)); err != nil {
					return err
				}
			}
		case f.Type == traceType:
			var g trace.Generator
			if err := decodeFields(reflect.ValueOf(&g).Elem(), obj, used, path); err != nil {
				return err
			}
			if !reflect.ValueOf(g).IsZero() {
				tr, err := g.Trace()
				if err != nil {
					return at(path, err)
				}
				fv.Set(reflect.ValueOf(tr))
			}
		case f.Type.Kind() == reflect.Pointer:
			p := reflect.New(f.Type.Elem())
			if err := decodeFields(p.Elem(), obj, used, path); err != nil {
				return err
			}
			if !p.Elem().IsZero() {
				fv.Set(p)
			}
		default:
			if err := decodeFields(fv, obj, used, path); err != nil {
				return err
			}
		}
	}
	return nil
}

// encodeFields adds v's fields to obj under their keys — an inlined
// struct's among them — leaving out zero values, which decode back to
// themselves.
func encodeFields(v reflect.Value, obj map[string]any) error {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		key, ok := f.Tag.Lookup("spec")
		switch {
		case !f.IsExported():
			continue
		case !ok:
			if !fv.IsZero() {
				return fmt.Errorf("%s.%s has no key in the file", v.Type(), f.Name)
			}
			continue
		case key != ",inline":
			if fv.IsZero() || (fv.Kind() == reflect.Slice || fv.Kind() == reflect.Map) && fv.Len() == 0 {
				continue
			}
			x, err := encodeValue(fv, unitOf(f, key))
			if err != nil {
				return err
			}
			obj[key] = x
			continue
		case fv.Kind() == reflect.Pointer && fv.IsNil():
			continue
		case f.Type == traceType:
			tr := fv.Interface().(*trace.Trace)
			g, ok := tr.Generator()
			if !ok {
				return fmt.Errorf("trace %q was made by no generator", tr.Name)
			}
			fv = reflect.ValueOf(g)
		case fv.Kind() == reflect.Pointer:
			fv = fv.Elem()
		}
		if err := encodeFields(fv, obj); err != nil {
			return err
		}
	}
	return nil
}

// encodeValue returns the file's value for v.
func encodeValue(v reflect.Value, u unit) (any, error) {
	if tm, ok := v.Interface().(encoding.TextMarshaler); ok {
		b, err := tm.MarshalText()
		return string(b), err
	}
	switch v.Kind() {
	case reflect.Pointer:
		return encodeValue(v.Elem(), u)
	case reflect.Interface:
		for name, t := range kinds[v.Type()] {
			if t == v.Elem().Type() {
				obj := map[string]any{"kind": name}
				return obj, encodeFields(v.Elem(), obj)
			}
		}
		return nil, fmt.Errorf("a %s has no kind in the file", v.Elem().Type())
	case reflect.Struct:
		obj := map[string]any{}
		return obj, encodeFields(v, obj)
	case reflect.Slice:
		arr := make([]any, v.Len())
		for i := range arr {
			x, err := encodeValue(v.Index(i), u)
			if err != nil {
				return nil, err
			}
			arr[i] = x
		}
		return arr, nil
	case reflect.Map:
		obj := map[string]any{}
		for _, k := range v.MapKeys() {
			x, err := encodeValue(v.MapIndex(k), u)
			if err != nil {
				return nil, err
			}
			obj[k.String()] = x
		}
		return obj, nil
	case reflect.Int, reflect.Int64:
		if u.mul == 0 {
			return v.Int(), nil
		}
		return u.inverse(float64(v.Int()), func(f float64) float64 {
			if y := u.of(f); math.Abs(y) < math.MaxInt64 {
				return float64(int64(y))
			}
			return u.of(f)
		}), nil
	case reflect.Float64:
		if u.mul == 0 {
			return v.Float(), nil
		}
		return u.inverse(v.Float(), u.of), nil
	}
	return v.Interface(), nil
}

func join(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// at locates err at path.
func at(path string, err error) error {
	if err == nil || path == "" {
		return err
	}
	return fmt.Errorf("%s: %v", path, err)
}

func mismatch(path, want string, got any) error {
	return at(path, fmt.Errorf("want %s, got %T", want, got))
}
