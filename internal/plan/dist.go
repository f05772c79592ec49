package plan

import (
	"fmt"

	"riot/internal/costmodel"
)

// DistShard is one remote site's share of a distributed multiply: how
// many tile bands of the sharded operand it owns, the total rows
// (shard-left) or columns (shard-right) those bands span, and how the
// share travels.
type DistShard struct {
	Site  string
	Bands int
	Span  int64
	Wire  Wire
}

// Wire says how an operand, or a site's share of one, crosses the
// network: a dense one as its row-major values, a sparse one as its
// nonzeros, each an in-tile index (4 bytes) beside a value (8 bytes).
type Wire struct {
	Sparse bool
	NNZ    int64 // stored nonzeros; read only when Sparse
}

// desc notes a sparse payload's nonzeros in a step description.
func (w Wire) desc() string {
	if !w.Sparse {
		return ""
	}
	return fmt.Sprintf(", %d nnz", w.NNZ)
}

// blocks is the wire size in device blocks of a payload that holds
// elems values when dense.
func (w Wire) blocks(elems int64, cp costmodel.Params) float64 {
	if w.Sparse {
		return costmodel.StreamBlocks(1.5*float64(w.NNZ), cp)
	}
	return costmodel.StreamBlocks(float64(elems), cp)
}

// DistMatMul builds the physical plan for a distributed tiled multiply
// C(l×k) = A(l×m) ⊗ B(m×k) over the given placement: per site, a
// scatter step shipping the broadcast operand plus the site's bands, a
// remote-exec step costed as that site's local tiled multiply, and a
// gather step pulling the partial result back. shipLeft means A is
// sharded by tile-row band (B broadcast); otherwise B is sharded by
// tile-col band (A broadcast); bcast says how the broadcast operand
// travels. The k dimension is never sharded, so no cross-site reduction
// step exists — partials reduce entirely locally.
//
// Network traffic is costed in device-sized blocks (B·8 bytes) at
// costmodel.NetBytesPerSec, sparse payloads by their nonzeros. Each site
// costs one round-trip set whatever its band count: two pushes (the
// broadcast operand and the site's concatenated bands) and one fetch.
// The estimates render in Explain's net column alongside each step's io
// and cpu estimates.
func DistMatMul(l, m, k int64, shards []DistShard, bcast Wire, shipLeft bool, mach Machine, ring string) *Plan {
	p := &Plan{
		Strategy: CostBased,
		Machine:  mach,
		Steps:    make([]Step, 0, 3*len(shards)),
	}
	cp := mach.params()
	ringName := ring
	if ringName == "" {
		ringName = "standard"
	}
	var bcastElems, bcastDesc = int64(0), ""
	if shipLeft {
		bcastElems = m * k
		bcastDesc = fmt.Sprintf("B %dx%d", m, k)
	} else {
		bcastElems = l * m
		bcastDesc = fmt.Sprintf("A %dx%d", l, m)
	}
	bcastBlocks := bcast.blocks(bcastElems, cp)
	for _, sh := range shards {
		var shardElems, outElems int64
		var shardDesc, execDesc string
		var el, em, ek float64 // the site's local multiply dims
		if shipLeft {
			shardElems = sh.Span * m
			outElems = sh.Span * k
			shardDesc = fmt.Sprintf("A rows [%d bands, %d rows%s]", sh.Bands, sh.Span, sh.Wire.desc())
			el, em, ek = float64(sh.Span), float64(m), float64(k)
		} else {
			shardElems = m * sh.Span
			outElems = l * sh.Span
			shardDesc = fmt.Sprintf("B cols [%d bands, %d cols%s]", sh.Bands, sh.Span, sh.Wire.desc())
			el, em, ek = float64(l), float64(m), float64(sh.Span)
		}
		execDesc = fmt.Sprintf("partial %s multiply %.0fx%.0f · %.0fx%.0f", ringName, el, em, em, ek)
		shardBlocks := sh.Wire.blocks(shardElems, cp)
		outBlocks := costmodel.StreamBlocks(float64(outElems), cp)

		scatterNet := bcastBlocks + shardBlocks
		p.Steps = append(p.Steps, Step{
			Kind:          StepScatter,
			Site:          sh.Site,
			Desc:          fmt.Sprintf("ship %s + %s", bcastDesc, shardDesc),
			EstNetBlocks:  scatterNet,
			EstNetSeconds: costmodel.NetSeconds(scatterNet, 2, cp),
			Provenance:    "broadcast the smaller operand to where the larger one's tiles live",
		})

		execRead := costmodel.SquareTiled(el, em, ek, cp)
		flops := el * em * ek
		p.Steps = append(p.Steps, Step{
			Kind:           StepRemoteExec,
			Site:           sh.Site,
			Desc:           execDesc,
			EstReadBlocks:  execRead,
			EstWriteBlocks: outBlocks,
			EstSeconds:     mach.seconds(execRead+outBlocks, 0),
			EstFlops:       flops,
			EstCPUSeconds:  costmodel.CPUSeconds(flops),
			Provenance:     "k is whole on every site: partial products reduce locally, no cross-site combine",
		})

		p.Steps = append(p.Steps, Step{
			Kind:          StepGather,
			Site:          sh.Site,
			Desc:          fmt.Sprintf("collect C band [%d elems]", outElems),
			EstNetBlocks:  outBlocks,
			EstNetSeconds: costmodel.NetSeconds(outBlocks, 1, cp),
			Provenance:    "assemble the result at the coordinator",
		})
	}
	for _, s := range p.Steps {
		p.EstBlocks += s.EstReadBlocks + s.EstWriteBlocks
		p.EstSeconds += s.EstSeconds
		p.EstCPUSeconds += s.EstCPUSeconds
		p.EstNetBlocks += s.EstNetBlocks
		p.EstNetSeconds += s.EstNetSeconds
	}
	return p
}
