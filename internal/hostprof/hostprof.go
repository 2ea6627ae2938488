// Package hostprof writes pprof profiles of the host process for the
// commands' -cpuprofile and -memprofile flags. It is its own package so that
// only the commands link runtime/pprof: the benchmark's live-heap figure
// then does not count pprof's package state.
package hostprof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start starts a host CPU profile written to cpuPath and opens
// memPath for an allocation profile; "" turns either off. Both files are
// created now, so a bad path fails before any work is done. The returned
// stop ends the CPU profile and writes the allocation profile after a
// collection: its alloc figures cover the whole run, its in-use figures
// (pprof -sample_index=inuse_space) what is live at the end. Call stop once
// the work to profile is done.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
			}
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if mem == nil {
			return nil
		}
		runtime.GC()
		err := pprof.Lookup("allocs").WriteTo(mem, 0)
		if cerr := mem.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		return nil
	}, nil
}
