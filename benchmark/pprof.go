package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// A minimal decoder for the pprof CPU profile format (a gzipped
// profile.proto message), so the harness can fold a profile into layer
// shares without a module dependency or a `go tool pprof` subprocess.
// Only the fields the fold needs are read: samples (leaf location and
// the last value, CPU nanoseconds), locations (first line = innermost
// inlined frame), functions (name) and the string table.

type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// field reads one field: its number, and either its varint value or its
// length-delimited payload. Fixed-width fields are skipped.
func (r *protoReader) field() (num int, val uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = r.varint()
	case 1:
		err = r.skip(8)
	case 5:
		err = r.skip(4)
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, nil, io.ErrUnexpectedEOF
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	default:
		err = errors.New("pprof: unsupported wire type")
	}
	return num, val, payload, err
}

func (r *protoReader) skip(n int) error {
	if len(r.b) < n {
		return io.ErrUnexpectedEOF
	}
	r.b = r.b[n:]
	return nil
}

// repeatedVarints decodes a repeated integer field that may arrive
// packed (payload) or as a single value.
func repeatedVarints(dst []uint64, val uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, val), nil
	}
	r := protoReader{payload}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// foldProfile returns CPU nanoseconds per leaf function name.
func foldProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples []sample
		locFunc = map[uint64]uint64{} // location id -> innermost function id
		fnName  = map[uint64]uint64{} // function id -> string index
		strs    []string
	)
	r := protoReader{raw}
	for len(r.b) > 0 {
		num, _, payload, err := r.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var locs, vals []uint64
			sr := protoReader{payload}
			for len(sr.b) > 0 {
				n, v, p, err := sr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					if locs, err = repeatedVarints(locs, v, p); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = repeatedVarints(vals, v, p); err != nil {
						return nil, err
					}
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], int64(vals[len(vals)-1])})
			}
		case 4: // Location
			var id, fn uint64
			seenLine := false
			lr := protoReader{payload}
			for len(lr.b) > 0 {
				n, v, p, err := lr.field()
				if err != nil {
					return nil, err
				}
				switch {
				case n == 1:
					id = v
				case n == 4 && !seenLine:
					seenLine = true
					ln := protoReader{p}
					for len(ln.b) > 0 {
						ln1, lv, _, err := ln.field()
						if err != nil {
							return nil, err
						}
						if ln1 == 1 {
							fn = lv
						}
					}
				}
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			fr := protoReader{payload}
			for len(fr.b) > 0 {
				n, v, _, err := fr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	out := map[string]int64{}
	for _, s := range samples {
		idx := fnName[locFunc[s.leaf]]
		name := "?"
		if idx < uint64(len(strs)) && strs[idx] != "" {
			name = strs[idx]
		}
		out[name] += s.value
	}
	return out, nil
}

// cpuLayers lists the layers of the cpu_share rows, in print order.
var cpuLayers = []string{"sim", "coord", "netsim", "queues", "crypto", "access", "transport", "runtime", "other"}

// layerOf assigns a fully qualified function name (the leaf frame of a
// CPU sample) to one ledger layer, by package and receiver type. The
// share is therefore self time: a malloc made by the scheduler counts
// as runtime, not sim.
func layerOf(fn string) string {
	const mod = "netfence/internal/"
	if rest, ok := strings.CutPrefix(fn, mod); ok {
		pkg, sym, _ := strings.Cut(rest, ".")
		recv := ""
		if strings.HasPrefix(sym, "(*") {
			recv, _, _ = strings.Cut(sym[2:], ")")
		}
		switch pkg {
		case "sim":
			if recv == "Coordinator" {
				return "coord"
			}
			return "sim"
		case "netsim":
			if recv == "Mailbox" {
				return "coord"
			}
			return "netsim"
		case "packet", "topo":
			return "netsim"
		case "queue", "aqm", "fq":
			return "queues"
		case "cmac", "feedback", "passport":
			return "crypto"
		case "core":
			switch recv {
			case "nfQueue":
				return "queues"
			case "Pipeline", "pipeWorker":
				return "coord"
			}
			return "access"
		case "ratelimit", "baseline", "defense":
			return "access"
		case "transport", "attack":
			return "transport"
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "crypto/"):
		return "crypto"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "sync.") ||
		strings.HasPrefix(fn, "sync/") || strings.HasPrefix(fn, "internal/sync"):
		return "runtime"
	}
	return "other"
}

// layerShares folds per-function CPU time into percent per layer.
func layerShares(byFunc map[string]int64) map[string]float64 {
	var total int64
	sums := map[string]int64{}
	for fn, ns := range byFunc {
		sums[layerOf(fn)] += ns
		total += ns
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			out[l] = 100 * float64(sums[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}
