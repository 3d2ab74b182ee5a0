package topo

import (
	"fmt"

	"netfence/internal/sim"
)

// The in-tree topologies self-register so scenarios can resolve them by
// name. Each registered default keeps the paper's 200 kbps per-sender
// bottleneck fair share at any population (the §6.3.1 scaling trick) and
// includes colluder ASes so the collusion workloads run unchanged:
//
//	dumbbell    — §6.3.1 ten-source-AS dumbbell, 9 colluder ASes
//	parkinglot  — §6.3.2 two-bottleneck chain, three sender groups
//	star        — single-AS hotspot: one access router polices everyone
//	random-as   — seeded random transit core with a dumbbell-style exit
func init() {
	Register("dumbbell", buildDumbbellGraph)
	Register("parkinglot", buildParkingLotGraph)
	Register("star", buildStarGraph)
	Register("random-as", buildRandomASGraph)
}

// defaultFairShareBps is the per-sender bottleneck share the registered
// defaults preserve across populations.
const defaultFairShareBps = 200_000

// defaultPopulation is the registered builders' sender count when
// neither Population nor Config picks one.
const defaultPopulation = 20

func buildDumbbellGraph(eng *sim.Engine, opts BuildOptions) (*Graph, error) {
	var cfg DumbbellConfig
	switch c := opts.Config.(type) {
	case nil:
		pop := opts.Population
		if pop <= 0 {
			pop = defaultPopulation
		}
		cfg = DefaultDumbbell(pop, int64(pop)*defaultFairShareBps)
		cfg.ColluderASes = 9
	case DumbbellConfig:
		cfg = c
	default:
		return nil, fmt.Errorf("config type %T is not topo.DumbbellConfig", opts.Config)
	}
	if opts.Population > 0 {
		ases := cfg.SrcASes
		if ases <= 0 {
			ases = 10
		}
		cfg.SrcASes, cfg.HostsPerAS = SplitEvenly(opts.Population, ases)
	}
	if cfg.SrcASes*cfg.HostsPerAS <= 0 {
		return nil, fmt.Errorf("no senders (SrcASes=%d, HostsPerAS=%d)", cfg.SrcASes, cfg.HostsPerAS)
	}
	return NewDumbbell(eng, cfg).G, nil
}

func buildParkingLotGraph(eng *sim.Engine, opts BuildOptions) (*Graph, error) {
	var cfg ParkingLotConfig
	switch c := opts.Config.(type) {
	case nil:
		pop := opts.Population
		if pop <= 0 {
			pop = 3 * defaultPopulation
		}
		if pop%3 != 0 {
			return nil, fmt.Errorf("population %d does not split into 3 equal groups", pop)
		}
		spg := pop / 3
		cfg = DefaultParkingLot(spg, int64(spg)*defaultFairShareBps, int64(spg)*defaultFairShareBps*3/2)
		cfg.ASesPerGroup, _ = SplitEvenly(spg, cfg.ASesPerGroup)
	case ParkingLotConfig:
		cfg = c
		if opts.Population > 0 {
			if opts.Population%3 != 0 {
				return nil, fmt.Errorf("population %d does not split into 3 equal groups", opts.Population)
			}
			cfg.SendersPerGroup = opts.Population / 3
			cfg.ASesPerGroup, _ = SplitEvenly(cfg.SendersPerGroup, cfg.ASesPerGroup)
		}
	default:
		return nil, fmt.Errorf("config type %T is not topo.ParkingLotConfig", opts.Config)
	}
	if cfg.SendersPerGroup <= 0 {
		return nil, fmt.Errorf("SendersPerGroup must be positive")
	}
	return NewParkingLot(eng, cfg).G, nil
}

func buildStarGraph(eng *sim.Engine, opts BuildOptions) (*Graph, error) {
	var cfg StarConfig
	switch c := opts.Config.(type) {
	case nil:
		pop := opts.Population
		if pop <= 0 {
			pop = defaultPopulation
		}
		cfg = DefaultStar(pop, int64(pop)*defaultFairShareBps)
		cfg.ColluderASes = 3
	case StarConfig:
		cfg = c
		if opts.Population > 0 {
			cfg.Senders = opts.Population
		}
	default:
		return nil, fmt.Errorf("config type %T is not topo.StarConfig", opts.Config)
	}
	if cfg.Senders <= 0 {
		return nil, fmt.Errorf("Senders must be positive")
	}
	return NewStar(eng, cfg).G, nil
}

func buildRandomASGraph(eng *sim.Engine, opts BuildOptions) (*Graph, error) {
	var cfg RandomASConfig
	switch c := opts.Config.(type) {
	case nil:
		pop := opts.Population
		if pop <= 0 {
			pop = defaultPopulation
		}
		cfg = DefaultRandomAS(pop, int64(pop)*defaultFairShareBps)
		cfg.ColluderASes = 3
	case RandomASConfig:
		cfg = c
		if opts.Population > 0 {
			cfg.Senders = opts.Population
		}
	default:
		return nil, fmt.Errorf("config type %T is not topo.RandomASConfig", opts.Config)
	}
	r, err := NewRandomAS(eng, cfg)
	if err != nil {
		return nil, err
	}
	return r.G, nil
}

// SplitEvenly splits a population over at most wantASes ASes, lowering
// the AS count to the largest divisor so every AS gets the same host
// count — the shared declared-population-is-a-contract policy of every
// builder (0 wantASes = 10).
func SplitEvenly(population, wantASes int) (ases, perAS int) {
	if wantASes <= 0 {
		wantASes = 10
	}
	if wantASes > population {
		wantASes = population
	}
	for wantASes > 1 && population%wantASes != 0 {
		wantASes--
	}
	if wantASes < 1 {
		wantASes = 1
	}
	return wantASes, population / wantASes
}
