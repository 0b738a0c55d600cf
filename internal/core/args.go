package core

import (
	"fmt"

	"paravis/internal/mem"
	"paravis/internal/sim"
)

// RunArgs builds the launch arguments of one run as every front door
// takes them: SizedArgs's scalars and zero-filled buffers, then each
// buffer named in bufs preloaded with its float32 data. A name that is
// not a mapped buffer, or data longer than its buffer, is an error;
// shorter data leaves the buffer's tail zero.
func (p *Program) RunArgs(ints map[string]int64, floats map[string]float64, bufs map[string][]float32) (sim.Args, error) {
	args, err := p.SizedArgs(ints, floats)
	if err != nil {
		return sim.Args{}, err
	}
	for name, data := range bufs {
		buf, ok := args.Buffers[name]
		if !ok {
			return sim.Args{}, fmt.Errorf("buffer %q is not a mapped pointer of kernel %s", name, p.Kernel.Name)
		}
		if len(data) > len(buf.Words) {
			return sim.Args{}, fmt.Errorf("buffer %q holds %d elements, got %d", name, len(buf.Words), len(data))
		}
		copy(buf.Words, mem.FloatsToWords(data))
	}
	return args, nil
}

// SizedArgs builds launch arguments for the program: scalar values are
// copied in and every non-scalar map clause gets a zero-filled buffer
// sized from its low/length expressions evaluated against the integer
// arguments. RunArgs preloads real data (the CLIs' @file.f32
// arguments, the daemon's inline buffers) on top.
// Scalar maps are copied, so concurrent runs never share argument state.
func (p *Program) SizedArgs(ints map[string]int64, floats map[string]float64) (sim.Args, error) {
	args := sim.Args{
		Ints:    map[string]int64{},
		Floats:  map[string]float64{},
		Buffers: map[string]*sim.Buffer{},
	}
	env := map[string]int64{}
	for k, v := range ints {
		args.Ints[k] = v
		env[k] = v
	}
	for k, v := range floats {
		args.Floats[k] = v
	}
	for _, m := range p.Kernel.Maps {
		if m.Scalar {
			continue
		}
		length, err := m.Len.Eval(env)
		if err != nil {
			return sim.Args{}, fmt.Errorf("core: map %s: %w", m.Name, err)
		}
		low := int64(0)
		if m.Low != nil {
			low, _ = m.Low.Eval(env)
		}
		if length <= 0 {
			return sim.Args{}, fmt.Errorf("core: map %s has non-positive length %d", m.Name, length)
		}
		args.Buffers[m.Name] = sim.NewZeroBuffer(int(low + length))
	}
	return args, nil
}
