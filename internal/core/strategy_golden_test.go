package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cablevod/internal/trace"
)

// strategyGoldenRow pins one built-in strategy's closed Result on the
// shard test workload (shardTestTrace, shardTestConfig) for one fill
// mode and seed. Counters and the transfer totals are kept in the
// clear; sha256 covers the whole Result, as encoding/json writes it
// with the parallelism knob cleared (normalizeResult), so a row pins
// every field a reflect.DeepEqual comparison would.
type strategyGoldenRow struct {
	strategy   string
	lag        time.Duration // Config.GlobalLag
	lookahead  time.Duration // Config.OracleLookahead
	noHistory  bool          // Config.NoHistory
	fill       FillMode
	seed       uint64
	counters   Counters
	serverBits int64
	demandBits int64
	sha256     string
}

// strategyGolden holds one row per strategy variant (see
// strategyGoldenVariants), fill mode and seed. Every row evicts, so
// each pins a victim order and not only admissions.
var strategyGolden = []strategyGoldenRow{
	{strategy: "lru", fill: FillImmediate, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 7298, MissNotCached: 0, MissUnplaced: 288, MissPeerBusy: 39, MissFirstFetch: 2719, Fills: 0, CoaxOverloads: 0, Admissions: 679, Evictions: 520}, serverBits: 6514011400000, demandBits: 22024844660000, sha256: "00cc60dd97086c5589708e3680d548d33ffaacfb6922305fd94614c44ec1db2a"},
	{strategy: "lru", fill: FillImmediate, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 5858, MissNotCached: 0, MissUnplaced: 123, MissPeerBusy: 30, MissFirstFetch: 2234, Fills: 0, CoaxOverloads: 0, Admissions: 566, Evictions: 406}, serverBits: 5088455320000, demandBits: 17492609940000, sha256: "9034c526f3abbfafea31dc2269e998c03bbf3183ab76b834d03588e86c048dd5"},
	{strategy: "lru", fill: FillOnBroadcast, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 5816, MissNotCached: 0, MissUnplaced: 4505, MissPeerBusy: 23, MissFirstFetch: 0, Fills: 3656, CoaxOverloads: 0, Admissions: 679, Evictions: 520}, serverBits: 9817700620000, demandBits: 22024844660000, sha256: "be438bea3e9384399eeeae0398f654a12abbafb45d50be423337886ccad0cd1c"},
	{strategy: "lru", fill: FillOnBroadcast, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 4620, MissNotCached: 0, MissUnplaced: 3589, MissPeerBusy: 36, MissFirstFetch: 0, Fills: 2881, CoaxOverloads: 0, Admissions: 566, Evictions: 406}, serverBits: 7849239060000, demandBits: 17492609940000, sha256: "479649cbbfa3e0288c3fa98477a6f5ca298c9e70394ecc5fbebdd6437844a0e6"},
	{strategy: "lfu", fill: FillImmediate, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 7405, MissNotCached: 636, MissUnplaced: 347, MissPeerBusy: 44, MissFirstFetch: 1912, Fills: 0, CoaxOverloads: 0, Admissions: 466, Evictions: 305}, serverBits: 6328840960000, demandBits: 22024844660000, sha256: "b8b83c7d21696def855b8bd207bcf31ba99a97720b0852189f4d5f9c6a128af1"},
	{strategy: "lfu", fill: FillImmediate, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 5953, MissNotCached: 234, MissUnplaced: 172, MissPeerBusy: 28, MissFirstFetch: 1858, Fills: 0, CoaxOverloads: 0, Admissions: 455, Evictions: 294}, serverBits: 4903317120000, demandBits: 17492609940000, sha256: "c8a458b78b0fcd12c4ba4a96677d57f3b50b83f31e8b7ad9bf82b1f9382c6f69"},
	{strategy: "lfu", fill: FillOnBroadcast, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 6298, MissNotCached: 678, MissUnplaced: 3338, MissPeerBusy: 30, MissFirstFetch: 0, Fills: 2737, CoaxOverloads: 0, Admissions: 466, Evictions: 305}, serverBits: 8833558500000, demandBits: 22024844660000, sha256: "6e595fa2d6ef1d4c17c382cbf17fd5e2579e06fde474788f2393057c26f50a2d"},
	{strategy: "lfu", fill: FillOnBroadcast, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 4878, MissNotCached: 315, MissUnplaced: 3020, MissPeerBusy: 32, MissFirstFetch: 0, Fills: 2446, CoaxOverloads: 0, Admissions: 455, Evictions: 294}, serverBits: 7317037260000, demandBits: 17492609940000, sha256: "26416b730f9f1779eb38f9804abb6d841a08acbda3e5f862bcf0ff84e303d884"},
	{strategy: "oracle", fill: FillImmediate, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 7869, MissNotCached: 433, MissUnplaced: 490, MissPeerBusy: 54, MissFirstFetch: 1498, Fills: 0, CoaxOverloads: 0, Admissions: 375, Evictions: 216}, serverBits: 5374730400000, demandBits: 22024844660000, sha256: "f25eb54e6cdc5304b4f05c4b0c6bb06897bbbcca453dbca9e392b210fdf50603"},
	{strategy: "oracle", fill: FillImmediate, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 6408, MissNotCached: 195, MissUnplaced: 197, MissPeerBusy: 38, MissFirstFetch: 1407, Fills: 0, CoaxOverloads: 0, Admissions: 354, Evictions: 194}, serverBits: 3939179920000, demandBits: 17492609940000, sha256: "9402687b5d16d1c8812e2be3a3f1e0cc9740f9a987222877ab6ee47a7da76d48"},
	{strategy: "oracle", fill: FillOnBroadcast, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 6672, MissNotCached: 476, MissUnplaced: 3158, MissPeerBusy: 38, MissFirstFetch: 0, Fills: 2600, CoaxOverloads: 0, Admissions: 375, Evictions: 216}, serverBits: 8055309080000, demandBits: 22024844660000, sha256: "25fd536ba16375e7d08df99f2e481fed24db46c3e73d870f9252053ebace648d"},
	{strategy: "oracle", fill: FillOnBroadcast, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 5179, MissNotCached: 200, MissUnplaced: 2825, MissPeerBusy: 41, MissFirstFetch: 0, Fills: 2301, CoaxOverloads: 0, Admissions: 354, Evictions: 194}, serverBits: 6693934780000, demandBits: 17492609940000, sha256: "f6905302b7acd9b0bf67fb0c9d9d9502fe025d82e17032fd028e65185880d2d7"},
	{strategy: "global-lfu", fill: FillImmediate, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 7614, MissNotCached: 1053, MissUnplaced: 319, MissPeerBusy: 39, MissFirstFetch: 1319, Fills: 0, CoaxOverloads: 0, Admissions: 320, Evictions: 158}, serverBits: 5900500320000, demandBits: 22024844660000, sha256: "ea3db594d48d9a0cb0a05e5e490235f2ca37c51b4f4cb4c6149acd7f253c4d2c"},
	{strategy: "global-lfu", fill: FillImmediate, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 6122, MissNotCached: 671, MissUnplaced: 135, MissPeerBusy: 33, MissFirstFetch: 1284, Fills: 0, CoaxOverloads: 0, Admissions: 323, Evictions: 160}, serverBits: 4522933480000, demandBits: 17492609940000, sha256: "3b0bda72fb5e5aed99a85bbb2f940ad26e27f47377b168cdb61177fae215a100"},
	{strategy: "global-lfu", fill: FillOnBroadcast, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 6419, MissNotCached: 1096, MissUnplaced: 2802, MissPeerBusy: 27, MissFirstFetch: 0, Fills: 2320, CoaxOverloads: 0, Admissions: 320, Evictions: 158}, serverBits: 8579595960000, demandBits: 22024844660000, sha256: "ed7b7e6a9a03c3eae44863691933945e844b21d9e004f8a6d40987eb8754410c"},
	{strategy: "global-lfu", fill: FillOnBroadcast, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 4949, MissNotCached: 674, MissUnplaced: 2585, MissPeerBusy: 37, MissFirstFetch: 0, Fills: 2113, CoaxOverloads: 0, Admissions: 323, Evictions: 160}, serverBits: 7174617060000, demandBits: 17492609940000, sha256: "473a4663f643befa6e856e9a9b2b0647e391cde51d279d93895eb7b9f5eb0b94"},
	{strategy: "global-lfu", lag: 30 * time.Minute, fill: FillImmediate, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 7634, MissNotCached: 1289, MissUnplaced: 279, MissPeerBusy: 38, MissFirstFetch: 1104, Fills: 0, CoaxOverloads: 0, Admissions: 279, Evictions: 118}, serverBits: 5869525740000, demandBits: 22024844660000, sha256: "06ccb43b7a63bca9cdfeb701db79cc2ec22ea6dd0904f49832865955661a3424"},
	{strategy: "global-lfu", lag: 30 * time.Minute, fill: FillImmediate, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 6017, MissNotCached: 737, MissUnplaced: 205, MissPeerBusy: 31, MissFirstFetch: 1255, Fills: 0, CoaxOverloads: 0, Admissions: 297, Evictions: 133}, serverBits: 4748508700000, demandBits: 17492609940000, sha256: "9579757b8a5322dd44645b853c53ae7eaff33e8bec2b9fb4c70e733422743b29"},
	{strategy: "global-lfu", lag: 30 * time.Minute, fill: FillOnBroadcast, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 6380, MissNotCached: 1295, MissUnplaced: 2639, MissPeerBusy: 30, MissFirstFetch: 0, Fills: 2190, CoaxOverloads: 0, Admissions: 279, Evictions: 118}, serverBits: 8660937480000, demandBits: 22024844660000, sha256: "4f5eade668222ef52585c858ef560b6c6935579f99b93f1c9d57c42b9d5ee4be"},
	{strategy: "global-lfu", lag: 30 * time.Minute, fill: FillOnBroadcast, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 4977, MissNotCached: 772, MissUnplaced: 2459, MissPeerBusy: 37, MissFirstFetch: 0, Fills: 2023, CoaxOverloads: 0, Admissions: 297, Evictions: 133}, serverBits: 7113046720000, demandBits: 17492609940000, sha256: "e65f26a302fd4b3eb688f57140adf6f3917d94c3dc608c822cbe19e718052c75"},
	{strategy: "global-lfu", lag: 120 * time.Minute, fill: FillImmediate, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 7538, MissNotCached: 1332, MissUnplaced: 319, MissPeerBusy: 43, MissFirstFetch: 1112, Fills: 0, CoaxOverloads: 0, Admissions: 288, Evictions: 128}, serverBits: 6082430640000, demandBits: 22024844660000, sha256: "958578368f1c94bbcffc35b71df546936edb3155561b193e9ba3e57a364f24fe"},
	{strategy: "global-lfu", lag: 120 * time.Minute, fill: FillImmediate, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 6087, MissNotCached: 719, MissUnplaced: 151, MissPeerBusy: 31, MissFirstFetch: 1257, Fills: 0, CoaxOverloads: 0, Admissions: 294, Evictions: 131}, serverBits: 4602977340000, demandBits: 17492609940000, sha256: "fd477f32220b92c5a11616a9094b56909071f4ea04e5531d6ef1bb0bbaceef00"},
	{strategy: "global-lfu", lag: 120 * time.Minute, fill: FillOnBroadcast, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 6304, MissNotCached: 1346, MissUnplaced: 2667, MissPeerBusy: 27, MissFirstFetch: 0, Fills: 2206, CoaxOverloads: 0, Admissions: 288, Evictions: 128}, serverBits: 8827416780000, demandBits: 22024844660000, sha256: "d239e777f69f079d94e7a3bf66c86bb220ba527c9565efe38c21f82eddf9b6e7"},
	{strategy: "global-lfu", lag: 120 * time.Minute, fill: FillOnBroadcast, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 4988, MissNotCached: 756, MissUnplaced: 2464, MissPeerBusy: 37, MissFirstFetch: 0, Fills: 2029, CoaxOverloads: 0, Admissions: 294, Evictions: 131}, serverBits: 7087448160000, demandBits: 17492609940000, sha256: "5c765d0319d4ee1e2c15a21977d97e66617507dc1d3b11cd80ee6e246d970897"},
	{strategy: "gdsf", fill: FillImmediate, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 7608, MissNotCached: 929, MissUnplaced: 227, MissPeerBusy: 37, MissFirstFetch: 1543, Fills: 0, CoaxOverloads: 0, Admissions: 399, Evictions: 222}, serverBits: 5879399240000, demandBits: 22024844660000, sha256: "633b55677b933cb8fd73ac8a488a7aaa2c5827eb2d5286427ad504142beaa8c4"},
	{strategy: "gdsf", fill: FillImmediate, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 6015, MissNotCached: 402, MissUnplaced: 140, MissPeerBusy: 28, MissFirstFetch: 1660, Fills: 0, CoaxOverloads: 0, Admissions: 412, Evictions: 240}, serverBits: 4765386340000, demandBits: 17492609940000, sha256: "210653c39e4f8218475f3472d7a3ab0fb1007be7d1be7abbd8e605ccc160d588"},
	{strategy: "gdsf", fill: FillOnBroadcast, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 6302, MissNotCached: 954, MissUnplaced: 3063, MissPeerBusy: 25, MissFirstFetch: 0, Fills: 2511, CoaxOverloads: 0, Admissions: 399, Evictions: 222}, serverBits: 8824249200000, demandBits: 22024844660000, sha256: "0ac9b8c9824c45df8ff065265fbe05c3e1cc12c484896a08188d86154d107e9f"},
	{strategy: "gdsf", fill: FillOnBroadcast, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 4943, MissNotCached: 428, MissUnplaced: 2837, MissPeerBusy: 37, MissFirstFetch: 0, Fills: 2295, CoaxOverloads: 0, Admissions: 412, Evictions: 240}, serverBits: 7160729680000, demandBits: 17492609940000, sha256: "1d1640c6fdefa006820b4fc587fd7de0632eef8f5dd57b41d967e8c27d39a614"},
	{strategy: "lru-2", fill: FillImmediate, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 7523, MissNotCached: 574, MissUnplaced: 210, MissPeerBusy: 47, MissFirstFetch: 1990, Fills: 0, CoaxOverloads: 0, Admissions: 490, Evictions: 332}, serverBits: 6044766260000, demandBits: 22024844660000, sha256: "64854fa20cc6673d9c01b2f5e0757b266a81a488023c895da8cc5cfa3f481b3b"},
	{strategy: "lru-2", fill: FillImmediate, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 6004, MissNotCached: 308, MissUnplaced: 102, MissPeerBusy: 28, MissFirstFetch: 1803, Fills: 0, CoaxOverloads: 0, Admissions: 453, Evictions: 291}, serverBits: 4765579780000, demandBits: 17492609940000, sha256: "5be1f4b5a904c42cff6826676e0869796fd78877f104230cc47c7f20ed194800"},
	{strategy: "lru-2", fill: FillOnBroadcast, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 6249, MissNotCached: 601, MissUnplaced: 3468, MissPeerBusy: 26, MissFirstFetch: 0, Fills: 2839, CoaxOverloads: 0, Admissions: 490, Evictions: 332}, serverBits: 8914964500000, demandBits: 22024844660000, sha256: "5760f07cb72bd1a44afd40ab65f6a02a82ec391501d3a057309ce04c61fe937e"},
	{strategy: "lru-2", fill: FillOnBroadcast, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 4829, MissNotCached: 377, MissUnplaced: 3003, MissPeerBusy: 36, MissFirstFetch: 0, Fills: 2428, CoaxOverloads: 0, Admissions: 453, Evictions: 291}, serverBits: 7417996820000, demandBits: 17492609940000, sha256: "f5b1d17164044afe6f134fd1cb082b5a71b6b7736df0a82c8941613bb9456d94"},
	{strategy: "prefix-lfu", fill: FillImmediate, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 5603, MissNotCached: 65, MissUnplaced: 56, MissPeerBusy: 30, MissFirstFetch: 4590, Fills: 0, CoaxOverloads: 0, Admissions: 1138, Evictions: 212}, serverBits: 10122513700000, demandBits: 22024844660000, sha256: "1889c6fb63959adc2a0433e85782eb9ab78eacce9976cc8707bfdcd81cc26826"},
	{strategy: "prefix-lfu", fill: FillImmediate, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 4267, MissNotCached: 4, MissUnplaced: 14, MissPeerBusy: 36, MissFirstFetch: 3924, Fills: 0, CoaxOverloads: 0, Admissions: 1028, Evictions: 94}, serverBits: 8460050040000, demandBits: 17492609940000, sha256: "178240840c533a5cb095335f4b61616f24bfe8822868049b985dd91a201266d8"},
	{strategy: "prefix-lfu", fill: FillOnBroadcast, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 4675, MissNotCached: 111, MissUnplaced: 5531, MissPeerBusy: 27, MissFirstFetch: 0, Fills: 2825, CoaxOverloads: 0, Admissions: 1138, Evictions: 212}, serverBits: 12192789180000, demandBits: 22024844660000, sha256: "1aa1206c652fe3c79ddf840653861cff626eb1f1d4613134ba622012ce57fa44"},
	{strategy: "prefix-lfu", fill: FillOnBroadcast, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 3456, MissNotCached: 14, MissUnplaced: 4755, MissPeerBusy: 20, MissFirstFetch: 0, Fills: 2323, CoaxOverloads: 0, Admissions: 1028, Evictions: 94}, serverBits: 10255568180000, demandBits: 17492609940000, sha256: "3f0bcd1d8b1aef9ef7af90964cca9d776b00224de552bc5c3d0877a69b2f27bb"},
	{strategy: "lfu", noHistory: true, fill: FillImmediate, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 7298, MissNotCached: 0, MissUnplaced: 288, MissPeerBusy: 39, MissFirstFetch: 2719, Fills: 0, CoaxOverloads: 0, Admissions: 679, Evictions: 520}, serverBits: 6514011400000, demandBits: 22024844660000, sha256: "92092dccfd6039e9a7b363460bb3381b8a0c145f965302d45ec8f9a8e47f99c8"},
	{strategy: "lfu", noHistory: true, fill: FillImmediate, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 5858, MissNotCached: 0, MissUnplaced: 123, MissPeerBusy: 30, MissFirstFetch: 2234, Fills: 0, CoaxOverloads: 0, Admissions: 566, Evictions: 406}, serverBits: 5088455320000, demandBits: 17492609940000, sha256: "9cbe4b26ee3581d828c5da081fe3ed7c4e161339f075bebd07ceddd3ecea9d7d"},
	{strategy: "lfu", noHistory: true, fill: FillOnBroadcast, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 5816, MissNotCached: 0, MissUnplaced: 4505, MissPeerBusy: 23, MissFirstFetch: 0, Fills: 3656, CoaxOverloads: 0, Admissions: 679, Evictions: 520}, serverBits: 9817700620000, demandBits: 22024844660000, sha256: "892d3fa1831f48e8104dcdaf263c73762ad3fea961b917e38c5fe453286dee42"},
	{strategy: "lfu", noHistory: true, fill: FillOnBroadcast, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 4620, MissNotCached: 0, MissUnplaced: 3589, MissPeerBusy: 36, MissFirstFetch: 0, Fills: 2881, CoaxOverloads: 0, Admissions: 566, Evictions: 406}, serverBits: 7849239060000, demandBits: 17492609940000, sha256: "0054cca2862da39847a09725044ed7c9444b44932a3b2e62614fd9a9ebb0147e"},
	{strategy: "oracle", lookahead: 24 * time.Hour, fill: FillImmediate, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 8070, MissNotCached: 156, MissUnplaced: 376, MissPeerBusy: 48, MissFirstFetch: 1694, Fills: 0, CoaxOverloads: 0, Admissions: 418, Evictions: 259}, serverBits: 4932518500000, demandBits: 22024844660000, sha256: "3351ee91fa09028392082c5f3e8981121d35f0fdc7c4656c964848b924a65308"},
	{strategy: "oracle", lookahead: 24 * time.Hour, fill: FillImmediate, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 6393, MissNotCached: 1, MissUnplaced: 241, MissPeerBusy: 34, MissFirstFetch: 1576, Fills: 0, CoaxOverloads: 0, Admissions: 387, Evictions: 227}, serverBits: 3977819560000, demandBits: 17492609940000, sha256: "c97e09f5723c48dbb36ab8d990a14f92c8400697ac29459dd091dae42911635b"},
	{strategy: "oracle", lookahead: 24 * time.Hour, fill: FillOnBroadcast, seed: 1, counters: Counters{Sessions: 2570, SegmentRequests: 10344, Hits: 6619, MissNotCached: 177, MissUnplaced: 3516, MissPeerBusy: 32, MissFirstFetch: 0, Fills: 2910, CoaxOverloads: 0, Admissions: 418, Evictions: 259}, serverBits: 8178747980000, demandBits: 22024844660000, sha256: "c3331c70ba368f0c8781455783de4fbd553356954e525ad0ac3d4589f339ff8d"},
	{strategy: "oracle", lookahead: 24 * time.Hour, fill: FillOnBroadcast, seed: 2, counters: Counters{Sessions: 2169, SegmentRequests: 8245, Hits: 5174, MissNotCached: 13, MissUnplaced: 3024, MissPeerBusy: 34, MissFirstFetch: 0, Fills: 2464, CoaxOverloads: 0, Admissions: 387, Evictions: 227}, serverBits: 6696393080000, demandBits: 17492609940000, sha256: "37192a3453bdc53f0193d6baee945e68e20ffc0b6c31d9448364f3b83f99caf0"},
}

// strategyGoldenVariants are the strategy settings the golden covers:
// the seven built-ins at their defaults, plus four settings the
// defaults leave unexercised on the 3-day test trace.
//   - global-lfu on 30-minute and 2-hour publication lags (Fig. 13).
//   - lfu with no history, Fig. 11's leftmost point. At any positive
//     history a request always raises the requested program's count,
//     which already makes it most recently used, so the tiebreak
//     matters only here.
//   - oracle on a 1-day lookahead. The default 3-day window covers the
//     whole trace from the first request, so only a shorter one slides
//     accesses into the window while the run is on.
var strategyGoldenVariants = []strategyGoldenRow{
	{strategy: "lru"}, {strategy: "lfu"}, {strategy: "oracle"}, {strategy: "global-lfu"},
	{strategy: "gdsf"}, {strategy: "lru-2"}, {strategy: "prefix-lfu"},
	{strategy: "global-lfu", lag: 30 * time.Minute},
	{strategy: "global-lfu", lag: 2 * time.Hour},
	{strategy: "lfu", noHistory: true},
	{strategy: "oracle", lookahead: 24 * time.Hour},
}

// key is the row's identity: what it runs, not what it measured.
func (r strategyGoldenRow) key() strategyGoldenRow {
	return strategyGoldenRow{strategy: r.strategy, lag: r.lag, lookahead: r.lookahead, noHistory: r.noHistory, fill: r.fill, seed: r.seed}
}

// name spells out the row's identity for messages.
func (r strategyGoldenRow) name() string {
	return fmt.Sprintf("%s lag %v lookahead %v noHistory %v, %v, seed %d",
		r.strategy, r.lag, r.lookahead, r.noHistory, r.fill, r.seed)
}

// measure fills the row's outcome fields from a closed Result.
func (r strategyGoldenRow) measure(res *Result) (strategyGoldenRow, error) {
	body, err := json.Marshal(normalizeResult(res))
	if err != nil {
		return r, err
	}
	sum := sha256.Sum256(body)
	r.counters = res.Counters
	r.serverBits, r.demandBits = res.ServerBits, res.DemandBits
	r.sha256 = hex.EncodeToString(sum[:])
	return r, nil
}

// String renders the row as a line of the strategyGolden table, so a
// mismatch prints the row it got in the table's own form.
func (r strategyGoldenRow) String() string {
	var c strings.Builder
	v := reflect.ValueOf(r.counters)
	for i := range v.NumField() {
		if i > 0 {
			c.WriteString(", ")
		}
		fmt.Fprintf(&c, "%s: %d", v.Type().Field(i).Name, v.Field(i).Uint())
	}
	variant := ""
	if r.lag != 0 {
		variant += fmt.Sprintf("lag: %d * time.Minute, ", r.lag/time.Minute)
	}
	if r.lookahead != 0 {
		variant += fmt.Sprintf("lookahead: %d * time.Hour, ", r.lookahead/time.Hour)
	}
	if r.noHistory {
		variant += "noHistory: true, "
	}
	fill := map[FillMode]string{FillImmediate: "FillImmediate", FillOnBroadcast: "FillOnBroadcast"}[r.fill]
	return fmt.Sprintf("{strategy: %q, %sfill: %s, seed: %d, counters: Counters{%s}, serverBits: %d, demandBits: %d, sha256: %q},",
		r.strategy, variant, fill, r.seed, c.String(), r.serverBits, r.demandBits, r.sha256)
}

// TestStrategyGolden pins the behaviour of every built-in strategy: each
// golden row must come out of the batch Run and of chunked SubmitBatch
// ingest with mid-flight Snapshots, at parallelism 1, 4 and GOMAXPROCS.
// The table must hold exactly one row per variant, fill mode and seed,
// and every row must evict.
func TestStrategyGolden(t *testing.T) {
	missing := make(map[strategyGoldenRow]bool)
	for _, v := range strategyGoldenVariants {
		for _, fill := range []FillMode{FillImmediate, FillOnBroadcast} {
			for seed := uint64(1); seed <= 2; seed++ {
				v.fill, v.seed = fill, seed
				missing[v] = true
			}
		}
	}
	for _, row := range strategyGolden {
		if !missing[row.key()] {
			t.Errorf("golden row %s is a duplicate or outside the grid", row.name())
		}
		delete(missing, row.key())
		if row.counters.Evictions == 0 {
			t.Errorf("golden row %s evicts nothing", row.name())
		}
	}
	for row := range missing {
		t.Errorf("no golden row for %s", row.name())
	}

	levels := []int{1, 4, runtime.GOMAXPROCS(0)}
	traces := make(map[uint64]*trace.Trace)
	for _, want := range strategyGolden {
		tr, ok := traces[want.seed]
		if !ok {
			tr = shardTestTrace(t, want.seed)
			traces[want.seed] = tr
		}
		for _, par := range levels {
			cfg := shardTestConfig(0, want.fill, par)
			cfg.StrategyName = want.strategy
			cfg.GlobalLag = want.lag
			cfg.OracleLookahead = want.lookahead
			cfg.NoHistory = want.noHistory
			res, err := Run(cfg, tr)
			if err != nil {
				t.Fatalf("%s at parallelism %d: %v", want.name(), par, err)
			}
			for _, run := range []struct {
				path string
				res  *Result
			}{{"Run", res}, {"SubmitBatch", runBatched(t, cfg, tr, 500)}} {
				got, err := want.key().measure(run.res)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s at parallelism %d differs from the golden row\n got: %v\nwant: %v", run.path, par, got, want)
				}
			}
		}
	}
}
