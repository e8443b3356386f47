// Code generated by go generate; DO NOT EDIT.

package modelid

// Model is the model identity (see Compute) of these packages:
//
//	internal/bender
//	internal/characterize
//	internal/chips
//	internal/core
//	internal/cpu
//	internal/ddr
//	internal/device
//	internal/energy
//	internal/jsonexact
//	internal/memsys
//	internal/mitigation
//	internal/sim
//	internal/stats
//	internal/telemetry
//	internal/trace
//	internal/xrand
const Model = "d6a2193df66d84bfb13c"
