package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// Reserved tags on MPI_COMM_WORLD / COMM_USER_WORLD for Casper's
// internal control traffic.
const (
	tagGhostCmd  = 1 << 20 // user -> ghost commands
	tagPSCWPost  = 1<<20 + 1
	tagPSCWDone  = 1<<20 + 2
	tagShutdown  = 1<<20 + 3
	cmdWinCreate = byte(1)
	cmdShutdown  = byte(2)
	cmdWinFree   = byte(3)
	cmdSucceed   = byte(4) // engine-injected: take over as sequencer (fault worlds)
)

// deployment is the per-rank view of the ghost-process carving performed
// at Init (Section II-A): which world ranks are ghosts, the node-local
// communicator used for shared-memory windows, and COMM_USER_WORLD.
type deployment struct {
	cfg      Config
	place    *cluster.Placement
	world    *mpi.Comm
	nodeComm *mpi.Comm // users + ghosts of this node
	userComm *mpi.Comm // COMM_USER_WORLD (nil on ghosts)

	isGhost      bool
	ghostsByNode [][]int // node -> ghost world ranks
	usersByNode  [][]int // node -> user world ranks
	maxUsers     int     // max users on any node (internal window count, III-A)

	// bound memoizes boundGhost by world rank (-1: not yet computed);
	// ghostsByNode is fixed after Init, so neither is the binding.
	bound []int

	// journal is the replayable command log enabling sequencer
	// succession; nil in fault-free worlds (see journal.go).
	journal *cmdJournal
}

// ghostLocalIndices returns the node-local indices (0..ppn-1) reserved
// for ghost processes: the last core of each NUMA domain first, so that
// ghosts are spread across NUMA domains and each can bind to the user
// ranks of its own domain (topology awareness, Section II-A).
func ghostLocalIndices(ppn, numaPerNode, coresPerNUMA, g int) []int {
	if g > ppn {
		g = ppn
	}
	picked := make(map[int]bool, g)
	var out []int
	// Walk domains round-robin, taking from the back of each domain's
	// occupied cores.
	for round := 0; len(out) < g && round <= ppn; round++ {
		for d := 0; d < numaPerNode && len(out) < g; d++ {
			start := d * coresPerNUMA
			end := (d + 1) * coresPerNUMA
			if end > ppn {
				end = ppn
			}
			idx := end - 1 - round
			if idx < start || idx < 0 {
				continue
			}
			if !picked[idx] {
				picked[idx] = true
				out = append(out, idx)
			}
		}
	}
	sort.Ints(out)
	return out
}

// partitionGhosts computes the ghost/user partition for every node from
// the placement alone — the deterministic rule both Init and external
// harnesses (via GhostRanks) must agree on.
func partitionGhosts(place *cluster.Placement, numGhosts int) (ghostsByNode, usersByNode [][]int, maxUsers int, err error) {
	m := place.Machine()
	nodes := place.NodesUsed()
	ghostsByNode = make([][]int, nodes)
	usersByNode = make([][]int, nodes)
	perNUMA := m.CoresPerNUMA()
	for node := 0; node < nodes; node++ {
		ranks := place.NodeRanks(node)
		ghostIdx := ghostLocalIndices(len(ranks), m.NUMAPerNode, perNUMA, numGhosts)
		isG := make(map[int]bool, len(ghostIdx))
		for _, i := range ghostIdx {
			isG[i] = true
		}
		for i, wr := range ranks {
			if isG[i] {
				ghostsByNode[node] = append(ghostsByNode[node], wr)
			} else {
				usersByNode[node] = append(usersByNode[node], wr)
			}
		}
		if len(usersByNode[node]) == 0 && len(ranks) > 0 {
			return nil, nil, 0, fmt.Errorf("casper: node %d has no user processes", node)
		}
		if n := len(usersByNode[node]); n > maxUsers {
			maxUsers = n
		}
	}
	return ghostsByNode, usersByNode, maxUsers, nil
}

// GhostRanks returns, per node, the world ranks Init will carve out as
// ghost processes for the given machine and placement — the same rule
// buildDeployment applies. Harnesses use it to aim fault plans (crash or
// stall a specific ghost) without reimplementing the carving.
func GhostRanks(m cluster.Machine, n, ppn, numGhosts int) ([][]int, error) {
	place, err := cluster.NewPlacement(m, n, ppn)
	if err != nil {
		return nil, err
	}
	if numGhosts >= ppn {
		return nil, fmt.Errorf("casper: %d ghosts per node leaves no user processes (ppn %d)",
			numGhosts, ppn)
	}
	ghosts, _, _, err := partitionGhosts(place, numGhosts)
	return ghosts, err
}

// buildDeployment computes the ghost/user partition deterministically on
// every rank from the placement alone.
func buildDeployment(r *mpi.Rank, cfg Config) (*deployment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	place := r.World().Placement()
	if cfg.NumGhosts >= place.PPN() {
		return nil, fmt.Errorf("casper: %d ghosts per node leaves no user processes (ppn %d)",
			cfg.NumGhosts, place.PPN())
	}
	d := &deployment{cfg: cfg, place: place, world: r.CommWorld()}
	var err error
	d.ghostsByNode, d.usersByNode, d.maxUsers, err = partitionGhosts(place, cfg.NumGhosts)
	if err != nil {
		return nil, err
	}
	node := place.Node(r.Rank())
	for _, g := range d.ghostsByNode[node] {
		if g == r.Rank() {
			d.isGhost = true
		}
	}
	return d, nil
}

// Init deploys Casper on this rank. On user processes it returns a
// *Process (which implements mpi.Env) and isGhost=false. On ghost
// processes it runs the ghost service loop — the process stays parked
// inside MPI servicing redirected RMA until a user calls Finalize — and
// then returns (nil, true).
func Init(r *mpi.Rank, cfg Config) (*Process, bool) {
	cfg = cfg.withDefaults()
	d, err := buildDeployment(r, cfg)
	if err != nil {
		panic(err)
	}
	world := d.world
	node := d.place.Node(r.Rank())
	// Node communicator (users + ghosts of the node), ordered by world
	// rank: offsets within the shared segment follow this order.
	d.nodeComm = world.Split(node, r.Rank())
	// COMM_USER_WORLD: ghosts get no communicator.
	color := 0
	if d.isGhost {
		color = -1
	}
	d.userComm = world.Split(color, r.Rank())

	// Fault worlds log every command so the sequencer role can migrate
	// after a crash; fault-free worlds keep the seed command path.
	if r.World().FaultsEnabled() {
		d.journal = journalFor(r, d)
	}

	if d.isGhost {
		ghostLoop(r, d)
		return nil, true
	}
	// User processes monitor ghost health so routing can fail over after
	// a detected ghost crash. No-op unless a fault plan is installed.
	var ghosts []int
	for _, gs := range d.ghostsByNode {
		ghosts = append(ghosts, gs...)
	}
	r.World().TrackHealth(ghosts)
	if appCrashesPlanned(r) {
		// Recoverable app crashes must be confirmed by the detector
		// before the recovery pipeline can start, so the user ranks are
		// monitored too.
		var users []int
		for _, us := range d.usersByNode {
			users = append(users, us...)
		}
		r.World().TrackHealth(users)
	}
	return &Process{r: r, d: d}, false
}

// sequencer returns the ghost that orders all commands: the one with
// the smallest world rank. Users send commands to it; it forwards them
// to every other ghost, so all ghosts observe commands in one global
// order even when disjoint user groups create windows concurrently.
func (d *deployment) sequencer() int {
	best := -1
	for _, gs := range d.ghostsByNode {
		for _, g := range gs {
			if best == -1 || g < best {
				best = g
			}
		}
	}
	return best
}

// ghostLoop is the ghost process service loop (Section II-A): wait for
// commands inside MPI_RECV so the MPI runtime can progress any RMA
// operations targeting this ghost, join window-creation collectives on
// command, exit on shutdown. The sequencer ghost additionally forwards
// every command to the other ghosts, in order.
func ghostLoop(r *mpi.Rank, d *deployment) {
	// Windows this ghost participates in, keyed by their creation
	// command payload and indexed by per-key creation order — the same
	// (key, index) the user side derives, so windows may be freed in
	// any order.
	wins := map[string][]*ghostWinSet{}
	if j := d.journal; j != nil {
		ghostLoopJournal(r, d, j, wins)
		j.exited[r.Rank()] = true
		return
	}
	isSeq := r.Rank() == d.sequencer()
	for {
		data, _ := d.world.Recv(mpi.AnySource, tagGhostCmd)
		if len(data) == 0 {
			panic("casper: empty ghost command")
		}
		if isSeq {
			for _, gs := range d.ghostsByNode {
				for _, g := range gs {
					if g != r.Rank() {
						d.world.Send(g, tagGhostCmd, data)
					}
				}
			}
		}
		if handleGhostCmd(r, d, wins, data) {
			return
		}
	}
}

// ghostLoopJournal is the ghost service loop of fault worlds: every
// received command message is a doorbell that executes exactly one
// logged entry, the acting-sequencer role is checked dynamically, and a
// cmdSucceed doorbell hands the role over (see journal.go). In worlds
// where the sequencer never dies the message flow — payload bytes, send
// order, and costs — is identical to the legacy loop above.
func ghostLoopJournal(r *mpi.Rank, d *deployment, j *cmdJournal, wins map[string][]*ghostWinSet) {
	for {
		data, st := d.world.Recv(mpi.AnySource, tagGhostCmd)
		if len(data) == 0 {
			panic("casper: empty ghost command")
		}
		if data[0] == cmdSucceed {
			if j.takeover(r, d, wins) {
				return
			}
			continue
		}
		if j.seqRank == r.Rank() {
			if e := j.popPending(st.Source); e != nil {
				j.order(e)
				for _, gs := range d.ghostsByNode {
					for _, g := range gs {
						if g != r.Rank() {
							d.world.Send(g, tagGhostCmd, e.data)
						}
					}
				}
			}
		}
		if e := j.take(r.Rank()); e != nil {
			if handleGhostCmd(r, d, wins, e.data) {
				return
			}
		}
	}
}

// handleGhostCmd executes one ghost command; reports whether the
// service loop should exit (shutdown).
func handleGhostCmd(r *mpi.Rank, d *deployment, wins map[string][]*ghostWinSet, data []byte) bool {
	switch data[0] {
	case cmdShutdown:
		return true
	case cmdWinCreate:
		epochs, users, err := parseWinCmd(data[1:])
		if err != nil {
			panic(err)
		}
		key := string(data[1:])
		set := ghostJoinWindow(r, d, epochs, users)
		wins[key] = append(wins[key], &set)
	case cmdWinFree:
		key, idx, err := parseFreeCmd(data[1:])
		if err != nil {
			panic(err)
		}
		sets := wins[key]
		if idx >= len(sets) || sets[idx] == nil {
			panic(fmt.Sprintf("casper: free of unknown window instance %d", idx))
		}
		set := sets[idx]
		sets[idx] = nil
		set.free()
	default:
		panic(fmt.Sprintf("casper: unknown ghost command %d", data[0]))
	}
	return false
}

// ghostWinSet holds the ghost's handles of one Casper window's internal
// windows, for the free protocol.
type ghostWinSet struct {
	shared   *mpi.Win
	lockWins []*mpi.Win
	active   *mpi.Win
}

// free releases the internal windows in the same order the user side
// does in casperWin.Free.
func (s ghostWinSet) free() {
	for _, w := range s.lockWins {
		w.Free()
	}
	if s.active != nil {
		s.active.Free()
	}
	s.shared.Free()
}

// encodeWinCmd/parseWinCmd carry the window-creation parameters to the
// ghosts: the epochs_used hint and the window's user world ranks (the
// window may live on any subset of COMM_USER_WORLD).
func encodeWinCmd(epochs epochSet, users []int) []byte {
	var b strings.Builder
	b.WriteByte(cmdWinCreate)
	b.WriteString(epochs.String())
	b.WriteByte(0)
	for i, u := range users {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", u)
	}
	return []byte(b.String())
}

// encodeFreeCmd/parseFreeCmd address a window by its creation key and
// per-key creation index.
func encodeFreeCmd(key string, idx int) []byte {
	return []byte(fmt.Sprintf("%c%d\x1f%s", cmdWinFree, idx, key))
}

func parseFreeCmd(payload []byte) (string, int, error) {
	parts := strings.SplitN(string(payload), "\x1f", 2)
	if len(parts) != 2 {
		return "", 0, fmt.Errorf("casper: malformed free command")
	}
	idx, err := strconv.Atoi(parts[0])
	if err != nil {
		return "", 0, fmt.Errorf("casper: bad free index %q", parts[0])
	}
	return parts[1], idx, nil
}

func parseWinCmd(payload []byte) (epochSet, []int, error) {
	parts := strings.SplitN(string(payload), "\x00", 2)
	if len(parts) != 2 {
		return epochSet{}, nil, fmt.Errorf("casper: malformed window command")
	}
	epochs, err := parseEpochs(parts[0])
	if err != nil {
		return epochSet{}, nil, err
	}
	var users []int
	for _, f := range strings.Split(parts[1], ",") {
		v, err := strconv.Atoi(f)
		if err != nil {
			return epochSet{}, nil, fmt.Errorf("casper: bad rank %q in window command", f)
		}
		users = append(users, v)
	}
	return epochs, users, nil
}

// winTopology is the per-window view of which user world ranks live on
// which node, shared by users and ghosts when constructing a window.
type winTopology struct {
	usersByNode map[int][]int // node -> window user world ranks (ascending)
	maxUsers    int           // max window users on any node
	allGhosts   []int         // every ghost world rank, ascending
}

func (d *deployment) topologyFor(users []int) winTopology {
	t := winTopology{usersByNode: map[int][]int{}}
	for _, u := range users {
		node := d.place.Node(u)
		t.usersByNode[node] = append(t.usersByNode[node], u)
	}
	for _, us := range t.usersByNode {
		sort.Ints(us)
		if len(us) > t.maxUsers {
			t.maxUsers = len(us)
		}
	}
	for _, gs := range d.ghostsByNode {
		t.allGhosts = append(t.allGhosts, gs...)
	}
	sort.Ints(t.allGhosts)
	return t
}

// nodeWinRanks returns the members of the per-node shared window for
// this window: the window's users on the node plus the node's ghosts.
func (t winTopology) nodeWinRanks(d *deployment, node int) []int {
	ranks := append([]int(nil), t.usersByNode[node]...)
	ranks = append(ranks, d.ghostsByNode[node]...)
	sort.Ints(ranks)
	return ranks
}

// internalRanks returns the members of the internal overlapping
// windows: every window user plus every ghost.
func (t winTopology) internalRanks(users []int) []int {
	ranks := append([]int(nil), users...)
	ranks = append(ranks, t.allGhosts...)
	sort.Ints(ranks)
	return ranks
}

// windowLocalIndex returns the position of worldRank among the window's
// users on its node (the i of "the ith user process", III-A).
func (t winTopology) windowLocalIndex(d *deployment, worldRank int) int {
	for i, u := range t.usersByNode[d.place.Node(worldRank)] {
		if u == worldRank {
			return i
		}
	}
	panic(fmt.Sprintf("casper: rank %d not a user of this window", worldRank))
}

// ghostJoinWindow mirrors, on the ghost side, the collective window
// construction the user processes perform in Process.WinAllocate. The
// two sides must stay in lockstep.
func ghostJoinWindow(r *mpi.Rank, d *deployment, epochs epochSet, users []int) ghostWinSet {
	topo := d.topologyFor(users)
	node := d.place.Node(r.Rank())
	var set ghostWinSet
	// 1. Node shared window; ghosts contribute zero bytes but gain
	// load/store access to the whole node segment (Fig. 2).
	nodeComm := r.CommFromGroup(topo.nodeWinRanks(d, node))
	shared, _ := r.WinAllocateShared(nodeComm, 0, nil)
	set.shared = shared
	root := shared.Region().Root()
	// 2. Internal overlapping windows over users + all ghosts: the
	// ghost exposes the entire node segment in each.
	internal := r.CommFromGroup(topo.internalRanks(users))
	for i := 0; i < d.lockWindowCount(epochs, topo.maxUsers); i++ {
		set.lockWins = append(set.lockWins, r.WinCreate(internal, root, nil))
	}
	if epochs.needActive() {
		set.active = r.WinCreate(internal, root, nil)
	}
	// 3. The user-visible window is over the users' communicator only;
	// ghosts do not participate.
	return set
}

// lockWindowCount returns how many per-user-process overlapping windows
// are created (Section III-A): one per window user process on the
// fullest node when lock epochs are declared, one when the unsafe
// shared-lock-window mode is forced, zero otherwise.
func (d *deployment) lockWindowCount(epochs epochSet, maxUsers int) int {
	if !epochs.lock {
		return 0
	}
	if d.cfg.UnsafeSharedLockWindow {
		return 1
	}
	return maxUsers
}

// ghostsOf returns the ghost world ranks of the node hosting world rank.
func (d *deployment) ghostsOf(worldRank int) []int {
	return d.ghostsByNode[d.place.Node(worldRank)]
}

// userLocalIndex returns the position of worldRank among the user
// processes of its node (the i in "the ith user process", III-A).
func (d *deployment) userLocalIndex(worldRank int) int {
	users := d.usersByNode[d.place.Node(worldRank)]
	for i, u := range users {
		if u == worldRank {
			return i
		}
	}
	panic(fmt.Sprintf("casper: world rank %d is not a user process", worldRank))
}

// boundGhost returns the statically bound ghost (world rank) of a user
// process under rank binding: prefer ghosts in the target's NUMA domain,
// balance within the preferred set by local index (topology-aware
// binding, Section II-A).
func (d *deployment) boundGhost(worldRank int) int {
	if d.bound == nil {
		d.bound = make([]int, d.world.Size())
		for i := range d.bound {
			d.bound[i] = -1
		}
	}
	if g := d.bound[worldRank]; g >= 0 {
		return g
	}
	ghosts := d.ghostsOf(worldRank)
	same := 0
	for _, g := range ghosts {
		if d.place.SameNUMA(g, worldRank) {
			same++
		}
	}
	i := d.userLocalIndex(worldRank)
	g := ghosts[i%len(ghosts)]
	if same > 0 {
		i %= same
		for _, gw := range ghosts {
			if d.place.SameNUMA(gw, worldRank) {
				if i == 0 {
					g = gw
					break
				}
				i--
			}
		}
	}
	d.bound[worldRank] = g
	return g
}
