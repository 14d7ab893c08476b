"""Tests for configuration defaults — these pin the Table 2 parameters."""

import pytest

from repro.sim.config import (
    FIGURE3_CACHE_SIZES,
    MAX_NODES,
    CacheConfig,
    ConfigError,
    DirNNBCosts,
    MachineConfig,
    ScaleModel,
    TyphoonCosts,
)


class TestTable2Defaults:
    """The defaults must equal the paper's Table 2 exactly."""

    def test_common_parameters(self):
        config = MachineConfig()
        assert config.cache.associativity == 4
        assert config.cache.replacement == "random"
        assert config.block_size == 32
        assert config.tlb.entries == 64
        assert config.tlb.replacement == "fifo"
        assert config.page_size == 4096
        assert config.local_miss_cycles == 29
        assert config.local_writeback_cycles == 0
        assert config.tlb.miss_cycles == 25
        assert config.network.latency == 11
        assert config.network.barrier_latency == 11

    def test_dirnnb_parameters(self):
        costs = DirNNBCosts()
        assert costs.remote_miss_issue == 23
        assert costs.remote_miss_finish == 34
        assert costs.replacement_shared == 5
        assert costs.replacement_exclusive == 16
        assert costs.invalidate_base == 8
        assert costs.directory_op == 16
        assert costs.directory_block_received == 11
        assert costs.directory_per_message == 5
        assert costs.directory_block_sent == 11

    def test_typhoon_parameters(self):
        costs = TyphoonCosts()
        assert costs.np_tlb_entries == 64
        assert costs.rtlb_entries == 64
        assert costs.np_tlb_miss == 25
        assert costs.rtlb_miss == 25
        assert costs.np_dcache_bytes == 16 * 1024
        assert costs.np_icache_bytes == 8 * 1024

    def test_section6_handler_path_lengths(self):
        costs = TyphoonCosts()
        assert costs.miss_request_instructions == 14
        assert costs.home_response_instructions == 30
        assert costs.data_arrival_instructions == 20

    def test_default_node_count_is_32(self):
        assert MachineConfig().nodes == 32

    def test_figure3_cache_sweep(self):
        assert FIGURE3_CACHE_SIZES == (4096, 16384, 65536, 262144)


class TestCacheConfig:
    def test_derived_geometry(self):
        cache = CacheConfig(size_bytes=4096, associativity=4, block_size=32)
        assert cache.num_blocks == 128
        assert cache.num_sets == 32

    def test_validate_accepts_default(self):
        CacheConfig().validate()

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ValueError):
            CacheConfig(block_size=48, size_bytes=4800).validate()

    def test_rejects_unknown_replacement(self):
        with pytest.raises(ValueError):
            CacheConfig(replacement="plru").validate()

    def test_rejects_size_not_multiple_of_block(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=4100).validate()

    @pytest.mark.parametrize("size", [0, -64, 64, 160])
    def test_rejects_sizes_that_are_not_whole_sets(self, size):
        # 4 ways of 32-byte blocks: a set is 128 bytes, so 0, -64 and 64
        # hold less than one set and 160 holds five blocks.
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=size, associativity=4,
                        block_size=32).validate()


class TestMachineConfig:
    def test_validate_accepts_default(self):
        MachineConfig().validate()

    def test_blocks_per_page(self):
        assert MachineConfig().blocks_per_page == 128

    def test_with_cache_size_is_a_copy(self):
        base = MachineConfig()
        small = base.with_cache_size(4096)
        assert small.cache.size_bytes == 4096
        assert base.cache.size_bytes == 256 * 1024

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            MachineConfig(nodes=0).validate()

    def test_rejects_more_than_max_nodes(self):
        MachineConfig(nodes=MAX_NODES).validate()
        with pytest.raises(ConfigError, match=f"at most {MAX_NODES} nodes"):
            MachineConfig(nodes=MAX_NODES + 1).validate()

    def test_rejects_mismatched_block_sizes(self):
        config = MachineConfig(block_size=64)
        with pytest.raises(ValueError):
            config.validate()

    def test_rejects_unknown_page_placement(self):
        with pytest.raises(ValueError):
            MachineConfig(page_placement="magic").validate()


class TestScaleModel:
    def test_identity_scale_preserves_cache_size(self):
        assert ScaleModel(scale=1.0).cache_bytes(4096) == 4096

    def test_scaled_cache_is_power_of_two(self):
        for scale in (0.3, 0.1, 0.05):
            size = ScaleModel(scale=scale).cache_bytes(256 * 1024)
            assert size & (size - 1) == 0

    def test_cache_floor(self):
        assert ScaleModel(scale=0.001).cache_bytes(4096) == 512

    def test_count_scales_and_floors(self):
        model = ScaleModel(scale=0.1)
        assert model.count(1000) == 100
        assert model.count(3) == 1
        assert model.count(3, minimum=4) == 4

    def test_scaling_preserves_working_set_to_cache_ratio(self):
        # The quantity Figure 3 exercises: dataset/cache ratio before and
        # after scaling must agree within the power-of-two rounding of the
        # cache size (factor of two).
        model = ScaleModel(scale=0.125)
        paper_dataset = 64_000
        paper_cache = 65536
        scaled_ratio = model.count(paper_dataset) / model.cache_bytes(paper_cache)
        paper_ratio = paper_dataset / paper_cache
        assert 0.5 <= scaled_ratio / paper_ratio <= 2.0
