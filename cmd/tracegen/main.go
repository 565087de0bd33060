// Command tracegen materializes a synthetic workload phase into the
// binary trace format, and inspects existing trace files.
//
// Usage:
//
//	tracegen -trace mcf.p1 -n 1000000 -o mcf.bvtr
//	tracegen -dump mcf.bvtr
//
// Exit codes follow the shared internal/cliexit contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"basevictim"
	"basevictim/internal/atomicio"
	"basevictim/internal/cliexit"
	"basevictim/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name = fs.String("trace", "mcf.p1", "suite trace to materialize")
		n    = fs.Uint64("n", 1_000_000, "number of operations")
		out  = fs.String("o", "", "output file (default <trace>.bvtr)")
		dump = fs.String("dump", "", "inspect an existing trace file and exit")
	)
	if err := fs.Parse(args); err != nil {
		return cliexit.Usage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "tracegen: unexpected arguments %q\n", fs.Args())
		return cliexit.Usage
	}
	var err error
	if *dump != "" {
		err = inspect(stdout, *dump)
	} else {
		err = generate(ctx, stdout, *name, *n, *out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", cliexit.Describe(err))
		return cliexit.Code(err)
	}
	return cliexit.OK
}

// generate writes the first n operations of the named suite trace to
// path (default <trace>.bvtr), polling ctx between operations.
func generate(ctx context.Context, stdout io.Writer, name string, n uint64, path string) error {
	tr, err := basevictim.TraceByName(name)
	if err != nil {
		return err
	}
	if path == "" {
		path = tr.Name + ".bvtr"
	}
	// Stream through an atomic write: a tracegen killed mid-run must
	// not leave a truncated .bvtr under the final name for a later
	// simulation to trip over.
	f, err := atomicio.Create(path, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	gen := tr.Stream()
	for i := uint64(0); i < n; i++ {
		if i%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		op, ok := gen.Next()
		if !ok {
			break
		}
		if err := w.Write(op); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Commit(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d ops to %s (%d bytes", w.Count(), path, st.Size())
	if w.Count() > 0 {
		fmt.Fprintf(stdout, ", %.2f bytes/op", float64(st.Size())/float64(w.Count()))
	}
	fmt.Fprintln(stdout, ")")
	return nil
}

func inspect(stdout io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	var ops, loads, stores, deps uint64
	minAddr, maxAddr := ^uint64(0), uint64(0)
	for {
		op, err := r.ReadOp()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		ops++
		switch op.Kind {
		case trace.Load:
			loads++
			if op.Dep {
				deps++
			}
		case trace.Store:
			stores++
		}
		if op.Kind != trace.Exec {
			if op.Addr < minAddr {
				minAddr = op.Addr
			}
			if op.Addr > maxAddr {
				maxAddr = op.Addr
			}
		}
	}
	fmt.Fprintf(stdout, "%s: %d ops (%d loads, %d stores, %d dependent loads)\n", path, ops, loads, stores, deps)
	if loads+stores > 0 {
		fmt.Fprintf(stdout, "address range: [%#x, %#x] (%.1f MB footprint)\n",
			minAddr, maxAddr, float64(maxAddr-minAddr)/(1<<20))
	}
	return nil
}
