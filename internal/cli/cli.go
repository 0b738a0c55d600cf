// Package cli holds the argument-handling helpers shared by the nymble
// command-line tools: the repeatable -D macro-define and -param flags,
// the unit list of the analysis tools (seed workloads or files), and
// name=value launch-argument parsing with @file.f32 buffer loading,
// whose arguments go through the same core.Program.RunArgs as the
// nymbled daemon's.
package cli

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"paravis/internal/core"
	"paravis/internal/sim"
	"paravis/internal/workloads"
)

// Defines is a repeatable -D NAME=VALUE flag (bare -D NAME means
// NAME=1, like a C compiler).
type Defines map[string]string

func (d Defines) String() string { return "" }

// Set records one NAME=VALUE definition.
func (d Defines) Set(v string) error {
	name, val, found := strings.Cut(v, "=")
	if !found {
		val = "1"
	}
	if name == "" {
		return fmt.Errorf("empty define name")
	}
	d[name] = val
	return nil
}

// Params is a repeatable -param NAME=VALUE flag carrying integer launch
// parameters (trip-count folding, canonical run arguments).
type Params map[string]int64

func (p Params) String() string { return "" }

// Set records one NAME=VALUE integer parameter.
func (p Params) Set(v string) error {
	name, val, found := strings.Cut(v, "=")
	if !found || name == "" {
		return fmt.Errorf("expected NAME=VALUE, got %q", v)
	}
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return fmt.Errorf("param %s: %v", name, err)
	}
	p[name] = n
	return nil
}

// ParseArgs splits positional name=value launch arguments into integer
// and float scalars plus @file buffer references (name=@file.f32 loads
// raw little-endian float32 data).
func ParseArgs(args []string) (ints map[string]int64, floats map[string]float64, bufFiles map[string]string, err error) {
	ints = map[string]int64{}
	floats = map[string]float64{}
	bufFiles = map[string]string{}
	for _, a := range args {
		name, val, found := strings.Cut(a, "=")
		if !found {
			return nil, nil, nil, fmt.Errorf("argument %q is not name=value", a)
		}
		if strings.HasPrefix(val, "@") {
			bufFiles[name] = val[1:]
			continue
		}
		if iv, err := strconv.ParseInt(val, 10, 64); err == nil {
			ints[name] = iv
			continue
		}
		fv, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("argument %q: %v", a, err)
		}
		floats[name] = fv
	}
	return ints, floats, bufFiles, nil
}

// LoadF32 reads a raw little-endian float32 file.
func LoadF32(path string) ([]float32, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("%s: size %d is not a multiple of 4", path, len(raw))
	}
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out, nil
}

// MakeArgs reads each @file argument and builds the run's arguments
// from them through Program.RunArgs, the daemon's own argument path.
func MakeArgs(p *core.Program, ints map[string]int64, floats map[string]float64, bufFiles map[string]string) (sim.Args, error) {
	bufs := make(map[string][]float32, len(bufFiles))
	for name, path := range bufFiles {
		data, err := LoadF32(path)
		if err != nil {
			return sim.Args{}, err
		}
		bufs[name] = data
	}
	return p.RunArgs(ints, floats, bufs)
}

// Units returns the units an analysis tool works on: with seeds, the
// built-in seed workloads, their canonical defines and parameters
// overlaid by the command line's; otherwise one unit per file argument
// (expandPaths) under the command line's defines and parameters. One
// list serves nymblevet, nymbleperf and nymbleopt, so every flag means
// the same on both paths.
func Units(seeds bool, args []string, defines map[string]string, params map[string]int64) ([]workloads.Unit, error) {
	if seeds {
		units := workloads.Units()
		for _, u := range units {
			maps.Copy(u.Defines, defines)
			maps.Copy(u.Params, params)
		}
		return units, nil
	}
	paths, err := expandPaths(args)
	if err != nil {
		return nil, err
	}
	units := make([]workloads.Unit, 0, len(paths))
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		units = append(units, workloads.Unit{Name: path, Source: string(src), Defines: defines, Params: params})
	}
	return units, nil
}

// expandPaths resolves the file arguments of an analysis tool: plain
// files pass through, directory arguments expand to the *.mc files
// inside them in sorted order (an empty directory is an error, not a
// silent no-op).
func expandPaths(args []string) ([]string, error) {
	var out []string
	for _, a := range args {
		info, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			out = append(out, a)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(a, "*.mc"))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("%s: no *.mc files", a)
		}
		sort.Strings(matches)
		out = append(out, matches...)
	}
	return out, nil
}
