package kernel

import "aapm/internal/machine"

// The batch tick engine lives in package machine. These aliases and
// NewBatch forward to it only because the benchmark module (perfbench/)
// imports the engine from here; code inside this module uses
// machine.NewBatch directly.

// BatchNode is machine.BatchNode.
type BatchNode = machine.BatchNode

// BatchOptions is machine.BatchOptions.
type BatchOptions = machine.BatchOptions

// BatchState is machine.BatchState.
type BatchState = machine.BatchState

// NewBatch is machine.NewBatch.
func NewBatch(nodes []BatchNode, opts BatchOptions) (*BatchState, error) {
	return machine.NewBatch(nodes, opts)
}
