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
//	internal/memsys
//	internal/mitigation
//	internal/sim
//	internal/stats
//	internal/telemetry
//	internal/trace
//	internal/xrand
const Model = "e94172badeeeae74a468"
