package perfbench

import "testing"

// The bodies live in perfbench.go so seqbench -benchjson can drive them
// via testing.Benchmark; these wrappers expose them to `go test -bench`.
// They are skipped (not run) by a plain `go test ./...`.

func BenchmarkExtcacheApplyParallel(b *testing.B)          { ExtcacheApplyParallel(b) }
func BenchmarkExtcacheApplyCleanupParallel(b *testing.B)   { ExtcacheApplyCleanupParallel(b) }
func BenchmarkExtcacheMaxSNParallel(b *testing.B)          { ExtcacheMaxSNParallel(b) }
func BenchmarkDataserverFlushParallel(b *testing.B)        { DataserverFlushParallel(b) }
func BenchmarkDataserverFlushCleanupParallel(b *testing.B) { DataserverFlushCleanupParallel(b) }
func BenchmarkPagecacheMixedParallel(b *testing.B)         { PagecacheMixedParallel(b) }
func BenchmarkPagecacheCollectDirty(b *testing.B)          { PagecacheCollectDirty(b) }
func BenchmarkLockClientCachedHitParallel(b *testing.B)    { LockClientCachedHitParallel(b) }
func BenchmarkDLMGrantReleaseParallel(b *testing.B)        { DLMGrantReleaseParallel(b) }
func BenchmarkRpcRoundTrip(b *testing.B)                   { RpcRoundTrip(b) }
func BenchmarkRpcRoundTripObs(b *testing.B)                { RpcRoundTripObs(b) }
func BenchmarkRpcRoundTripParallel(b *testing.B)           { RpcRoundTripParallel(b) }
func BenchmarkObsHistogramRecordParallel(b *testing.B)     { ObsHistogramRecordParallel(b) }
func BenchmarkFlushPipelineSequential(b *testing.B)        { FlushPipelineSequential(b) }
func BenchmarkFlushPipelineWindowed(b *testing.B)          { FlushPipelineWindowed(b) }
func BenchmarkLockGrantIndexed(b *testing.B)               { LockGrantIndexed(b) }
func BenchmarkLockGrantLinear(b *testing.B)                { LockGrantLinear(b) }
func BenchmarkRevokeStorm(b *testing.B)                    { RevokeStorm(b) }
func BenchmarkRevokeStormUnbatched(b *testing.B)           { RevokeStormUnbatched(b) }
func BenchmarkServerPingPong(b *testing.B)                 { ServerPingPong(b) }
func BenchmarkHandoffPingPong(b *testing.B)                { HandoffPingPong(b) }
