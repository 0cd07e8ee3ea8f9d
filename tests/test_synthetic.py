import numpy as np
import pytest

from sg3d.errors import ConfigError, DataError
from sg3d.scene import pair_index_arrays, split_predicates
from sg3d.synthetic import (EmbeddingProvider, WorldConfig, generate_dataset,
                            manifest_to_json, provider_from_manifest,
                            visual_feature_rows, zipf_weights)


class TestEmbeddingProvider:
    def test_unit_norm_rows(self):
        p = EmbeddingProvider(1, n_obj=10, n_rel=6, d_emb=16)
        assert np.allclose(np.linalg.norm(p.object_embeddings, axis=1), 1.0, atol=1e-9)
        assert np.allclose(np.linalg.norm(p.predicate_embeddings, axis=1), 1.0, atol=1e-9)

    def test_bounded_pairwise_cosine(self):
        p = EmbeddingProvider(2, n_obj=12, n_rel=8, d_emb=16)
        for rows in (p.object_embeddings, p.predicate_embeddings):
            cos = rows @ rows.T
            np.fill_diagonal(cos, 0)
            assert np.abs(cos).max() <= 0.9

    def test_text_embedding_deterministic(self):
        p = EmbeddingProvider(3, n_obj=5, n_rel=4, d_emb=12)
        a = p.text_embedding(1, 2, 3)
        b = p.text_embedding(1, 2, 3)
        assert np.array_equal(a, b)

    def test_text_embedding_distinct_predicates(self):
        p = EmbeddingProvider(4, n_obj=5, n_rel=4, d_emb=12)
        a = p.text_embedding(1, 0, 3)
        b = p.text_embedding(1, 2, 3)
        assert float(a @ b) < 1.0 - 1e-9

    def test_text_embedding_unit_norm(self):
        p = EmbeddingProvider(5, n_obj=5, n_rel=4, d_emb=12)
        for s, r, o in ((0, 0, 0), (4, 3, 2), (1, 1, 4)):
            assert abs(np.linalg.norm(p.text_embedding(s, r, o)) - 1.0) <= 1e-9

    def test_out_of_range(self):
        p = EmbeddingProvider(6, n_obj=3, n_rel=2, d_emb=8)
        with pytest.raises(DataError):
            p.text_embedding(3, 0, 0)
        with pytest.raises(DataError):
            p.text_embedding(0, 2, 0)


class TestVisualFeatures:
    def test_zero_noise_exact(self):
        rng = np.random.default_rng(0)
        latents = rng.standard_normal((4, 6))
        rows = visual_feature_rows(latents, n_views=3, sigma_noise=0.0,
                                   rng=np.random.default_rng(1))
        assert np.array_equal(rows, latents)

    def test_same_seed_identical(self):
        rng = np.random.default_rng(2)
        latents = rng.standard_normal((4, 6))
        a = visual_feature_rows(latents, 5, 0.3, np.random.default_rng(9))
        b = visual_feature_rows(latents, 5, 0.3, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_many_views_concentrate(self):
        # rms error of a 1000-view mean is sigma/sqrt(1000), far below 0.1 sigma
        rng = np.random.default_rng(3)
        latents = rng.standard_normal((5, 8))
        sigma = 0.25
        rows = visual_feature_rows(latents, 1000, sigma, np.random.default_rng(4))
        rms = np.sqrt(((rows - latents) ** 2).mean())
        assert rms <= 0.1 * sigma

    def test_invalid_views(self):
        with pytest.raises(ConfigError):
            visual_feature_rows(np.zeros((2, 3)), 0, 0.1, np.random.default_rng(0))


class TestZipfWeights:
    def test_uniform_at_zero(self):
        w = zipf_weights(13, 0.0)
        assert np.allclose(w, 1 / 13)

    def test_ratio_at_12(self):
        w = zipf_weights(13, 1.2)
        assert w[0] / w[12] == pytest.approx(13 ** 1.2)


def default_world(seed=7, **kw):
    fields = dict(seed=seed, n_train_scenes=60, n_val_scenes=20)
    fields.update(kw)
    return WorldConfig(**fields)


class TestGenerateDataset:
    def test_deterministic_byte_identical(self):
        a = generate_dataset(default_world())
        b = generate_dataset(default_world())
        assert manifest_to_json(a[2]) == manifest_to_json(b[2])
        for sa, sb in zip(a[0], b[0]):
            assert sa.scene_id == sb.scene_id
            assert np.array_equal(sa.gt_predicate_rows, sb.gt_predicate_rows)
            assert np.array_equal(sa.visual_features, sb.visual_features)
            for ia, ib in zip(sa.instances, sb.instances):
                assert np.array_equal(ia.points, ib.points)

    def test_infeasible_k_range(self):
        with pytest.raises(ConfigError):
            WorldConfig(k_max=1).validate()

    def test_semantic_predicate_must_be_tail(self):
        with pytest.raises(ConfigError):
            WorldConfig(semantic_predicates=[0]).validate()

    def test_every_scene_has_a_relation_and_no_self_relations(self):
        samples, vocab, manifest = generate_dataset(default_world())
        for s in samples:
            assert s.gt_predicate_rows.sum() >= 1
            # one row per ordered pair i != j: a self-relation has no row
            assert s.gt_predicate_rows.shape == (s.k * (s.k - 1), vocab.n_rel)

    def test_flat_profile_near_uniform(self):
        # tag rate raised so the latent rule is not the binding class; corpus
        # sized so the total clears 5000 relations
        cfg = default_world(seed=5, n_train_scenes=550, zipf_exponent=0.0,
                            tag_probability=0.4)
        samples, vocab, manifest = generate_dataset(cfg)
        counts = np.array(manifest["predicate_train_frequency"], dtype=float)
        assert counts.sum() >= 5000
        assert counts.max() / counts.min() <= 1.3

    def test_zipf_ratio(self):
        samples, vocab, manifest = generate_dataset(WorldConfig(seed=7))
        counts = manifest["predicate_train_frequency"]
        assert sum(counts) >= 2000
        assert counts[0] >= 8 * counts[12]

    def test_zipf_profile_within_10_percent(self):
        samples, vocab, manifest = generate_dataset(WorldConfig(seed=7))
        counts = np.array(manifest["predicate_train_frequency"], dtype=float)
        weights = zipf_weights(13, 1.2)
        target = weights / weights[0] * counts[0]
        rel_err = np.abs(counts - target) / target
        assert rel_err.max() <= 0.10

    def test_frequencies_match_files(self):
        samples, vocab, manifest = generate_dataset(default_world())
        counts = np.zeros(vocab.n_rel, dtype=int)
        for s in samples:
            if s.split == "train":
                counts = counts + s.gt_predicate_rows.sum(axis=0).astype(int)
        assert counts.tolist() == manifest["predicate_train_frequency"]

    def test_separability_contract(self):
        # fixed default seed; the audit is recorded per dataset in the manifest
        samples, vocab, manifest = generate_dataset(WorldConfig(seed=7))
        audit = manifest["separability_audit"]["12"]
        assert audit["geometry_balanced_accuracy"] < 0.60
        assert audit["latent_balanced_accuracy"] > 0.95

    def test_visual_features_present_with_width(self):
        cfg = default_world()
        samples, _, _ = generate_dataset(cfg)
        for s in samples:
            assert s.visual_features is not None
            assert s.visual_features.shape == (s.k, cfg.d_vis)

    def test_train_triplets_cover_train_relations(self):
        samples, vocab, manifest = generate_dataset(default_world())
        triples = {tuple(t) for t in manifest["train_triplets"]}
        for s in samples:
            if s.split != "train":
                continue
            classes = [i.gt_class for i in s.instances]
            subj, obj = pair_index_arrays(s.k)
            for e, p in zip(*np.nonzero(s.gt_predicate_rows)):
                assert (classes[subj[e]], int(p), classes[obj[e]]) in triples

    def test_splits_follow_frequency_rank(self):
        samples, vocab, manifest = generate_dataset(default_world())
        splits = split_predicates(vocab)
        assert splits["head"] == {0, 1, 2, 3}
        assert splits["tail"] == {7, 8, 9, 10, 11, 12}
        assert 12 in splits["tail"]

    def test_provider_round_trip_from_manifest(self):
        samples, vocab, manifest = generate_dataset(default_world())
        p1 = provider_from_manifest(manifest)
        p2 = provider_from_manifest(manifest)
        assert np.array_equal(p1.object_embeddings, p2.object_embeddings)

    def test_nondefault_vocab_sizes(self):
        cfg = WorldConfig(seed=11, n_train_scenes=40, n_val_scenes=10, n_obj=20, n_rel=9,
                          tag_probability=0.3)
        samples, vocab, manifest = generate_dataset(cfg)
        assert vocab.n_obj == 20 and vocab.n_rel == 9
        assert len(manifest["predicate_names"]) == 9
        assert cfg.semantic_predicates == [8]
