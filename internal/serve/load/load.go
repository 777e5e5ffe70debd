// Package load is the open-loop traffic source for the serving subsystem:
// a deterministic generator of transfer transactions over a population of
// simulated users (one account per user), with configurable hot-key skew
// and a configurable cross-shard fraction.
//
// Open-loop means arrivals are independent of completions: the generator
// emits Rate transactions every tick regardless of how far behind the
// service is, so overload shows up as queue growth and admission rejections
// (backpressure) rather than as a silently slowed workload — the
// production-traffic model the E9 experiment needs.
package load

// Txn is one generated transfer: move Amount from account From to account
// To. Accounts are global ids in [0, Users); the service maps them to
// shard-local indices (shard = id mod shards).
type Txn struct {
	// ID is the generation sequence number, unique per generator.
	ID int64
	// Arrival is the tick the transaction entered the system.
	Arrival int
	// From is the debited account.
	From int64
	// To is the credited account.
	To int64
	// Amount is the transferred amount.
	Amount int64
}

// Config parameterises a generator.
type Config struct {
	// Users is the simulated-user population (one account each); must be
	// at least 2.
	Users int64
	// Shards is the service's shard count; the generator uses it to steer
	// the cross-shard fraction (shard = account mod Shards).
	Shards int
	// Rate is the number of transactions emitted per tick.
	Rate int
	// Skew is the probability in [0,1) that an endpoint is drawn from the
	// hot set instead of uniformly; 0 is a uniform workload.
	Skew float64
	// Cross is the probability in [0,1] that a transfer's endpoints live
	// on different shards (meaningless with one shard).
	Cross float64
	// Seed makes the schedule reproducible; generators with equal configs
	// and seeds emit byte-identical schedules.
	Seed uint64
}

// Generator emits the deterministic open-loop schedule.
type Generator struct {
	cfg  Config
	hot  int64
	rng  uint64
	next int64
	buf  []Txn // Tick's result, reused every tick
}

// New creates a generator. The hot set is the first max(8, Users/1024)
// account ids; with shard = id mod Shards it spreads across shards, so skew
// concentrates traffic on accounts, not on one shard.
func New(cfg Config) *Generator {
	if cfg.Users < 2 {
		cfg.Users = 2
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Rate < 1 {
		cfg.Rate = 1
	}
	hot := cfg.Users / 1024
	if hot < 8 {
		hot = 8
	}
	if hot > cfg.Users {
		hot = cfg.Users
	}
	return &Generator{cfg: cfg, hot: hot, rng: cfg.Seed*2654435761 + 0x9e3779b97f4a7c15}
}

// Hot returns the hot-set size the generator derived from its population.
func (g *Generator) Hot() int64 { return g.hot }

// Generated returns how many transactions have been emitted so far.
func (g *Generator) Generated() int64 { return g.next }

// Tick emits the arrivals for one tick: exactly Rate transactions stamped
// with the given arrival tick. The result is valid until the next Tick,
// which reuses its storage; copy what must outlive it.
func (g *Generator) Tick(tick int) []Txn {
	g.buf = g.buf[:0]
	for i := 0; i < g.cfg.Rate; i++ {
		g.buf = append(g.buf, g.txn(tick))
	}
	return g.buf
}

func (g *Generator) txn(tick int) Txn {
	from := g.account()
	to := g.partner(from)
	t := Txn{
		ID:      g.next,
		Arrival: tick,
		From:    from,
		To:      to,
		Amount:  1 + int64(g.rand()%97),
	}
	g.next++
	return t
}

// account draws one endpoint: hot-set with probability Skew, else uniform.
func (g *Generator) account() int64 {
	if g.cfg.Skew > 0 && g.chance(g.cfg.Skew) {
		return int64(g.rand() % uint64(g.hot))
	}
	return int64(g.rand() % uint64(g.cfg.Users))
}

// partner draws the second endpoint for a transfer from `from`, steering
// the cross-shard fraction: with probability Cross the endpoints land on
// different shards, otherwise on the same shard. Falls back to any distinct
// account when the population gives no choice (one shard, tiny users).
func (g *Generator) partner(from int64) int64 {
	s := int64(g.cfg.Shards)
	wantCross := s > 1 && g.chance(g.cfg.Cross)
	for attempt := 0; attempt < 64; attempt++ {
		to := g.account()
		if to == from {
			continue
		}
		if s <= 1 {
			return to
		}
		if (to%s == from%s) != wantCross {
			return to
		}
	}
	// Deterministic fallback: the next distinct account with the wanted
	// placement, scanning from a random start.
	to := int64(g.rand() % uint64(g.cfg.Users))
	for i := int64(0); i < g.cfg.Users; i++ {
		c := (to + i) % g.cfg.Users
		if c == from {
			continue
		}
		if s <= 1 || (c%s == from%s) != wantCross {
			return c
		}
	}
	return (from + 1) % g.cfg.Users
}

// chance returns true with probability p (0..1).
func (g *Generator) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(g.rand()%(1<<53))/float64(1<<53) < p
}

// rand is xorshift64* — the VM scheduler's generator, reused so schedules
// stay platform-independent.
func (g *Generator) rand() uint64 {
	x := g.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	g.rng = x
	return x * 2685821657736338717
}
