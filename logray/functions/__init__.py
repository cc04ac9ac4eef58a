from logray.functions.textstats import TextStatsBatch, text_stats
from logray.functions.dedup import (
    dedup_keep_best,
    edit_distance_pairs,
    connected_components,
    connected_components_distributed,
    dedup_keep_min,
    containment_pairs,
    exact_dedup,
    hash_pairs_to_int64,
    minhash_lsh_dedup,
    ngram_jaccard_pairs,
    simhash_dedup,
    embedding_dedup,
)
from logray.functions.dedup_resumable import near_dedup_resumable
from logray.functions.ann import ann_topk, ann_lsh_topk, ann_ivf_topk
from logray.functions.fingerprint import FingerprintBatch
from logray.functions.sample import (
    reservoir_per_key,
    sample_uniform,
    stratified_split,
)
from logray.functions.ann import ann_ivf_query, build_ivf_index
from logray.functions.sketch import TDigest, approx_distinct, approx_quantiles
from logray.functions.modelscore import ModelScoreBatch, model_score_stage
from logray.functions.chunking import chunk_documents
from logray.functions.tokenize import (
    ByteBPE,
    chunk_documents_tokens,
    detokenize,
    tokenize_bpe,
    train_bpe,
    train_bpe_on_dataset,
    word_frequencies,
)
from logray.functions.decontam import build_contamination_index, flag_contaminated
from logray.functions.pii import redact_pii
from logray.functions.quality import compression_ratio, gopher_quality
from logray.functions.textclean import (
    clean_text,
    html_to_text,
    json_extract_field,
    normalize_nfc,
    sentence_split,
)
from logray.functions.graph import (
    anchor_text_table,
    clustering_coefficients,
    hits,
    hits_fixedpoint,
    kcore_members,
    sample_neighbors,
    triangle_count_approx,
    khop_edges,
    connected_components_graph,
    degree_table,
    pagerank,
    triangle_count,
)
from logray.functions.snapshot import snapshot_diff
from logray.functions.png import decode_png, encode_png
from logray.functions.multimodal import (
    DecodeImageBatch,
    ExtractAudioFeaturesBatch,
    SampleFramesBatch,
    decode_stage,
)

from logray.functions.linededup import dedup_lines
from logray.functions.spandedup import dedup_spans
from logray.functions.sample import budget_sample, mixture_sample, weighted_sample
from logray.functions.cluster import kmeans_assign, kmeans_fit
from logray.functions.packing import pack_documents
from logray.functions.tfidf import fit_df, tfidf_vectors
from logray.functions.sketch import approx_distinct_per_key
from logray.functions.bloom import bloom_prefilter, build_bloom
from logray.functions.semdedup import semdedup_keep, semdedup_verdicts
from logray.functions.dsir import dsir_sample, dsir_weights, fit_hashed_bag
from logray.functions.curriculum import curriculum_order, curriculum_order_sql
from logray.functions.sample import deterministic_shuffle
from logray.functions.quality import source_quality_gate
from logray.functions.lm import fit_ngram_lm, lm_perplexity, perplexity_buckets
from logray.functions.urlops import (
    extract_links,
    blocklist_filter,
    domain_quota,
    normalize_urls,
    parse_urls,
)
from logray.functions.classifier import LogRegModel, fit_logreg, score_logreg
from logray.functions.pca import PCAModel, fit_pca, project_pca
from logray.functions.collocations import (
    collocation_counts,
    pmi_collocations,
    lexical_diversity,
)
from logray.functions.shards import (
    payload_bytes,
    read_rebalanced,
    rebalance_shards,
    rebalance_shards_resumable,
)
from logray.functions.dedup_incremental import (
    build_hash_index,
    dedup_against_index,
    index_verdicts,
)
from logray.functions.neardup_incremental import (
    build_band_index,
    dedup_near_against_index,
    near_dup_ids_against_index,
)

__all__ = [
    "build_hash_index",
    "dedup_against_index",
    "index_verdicts",
    "build_band_index",
    "dedup_near_against_index",
    "near_dup_ids_against_index",
    "semdedup_keep",
    "semdedup_verdicts",
    "dsir_sample",
    "dsir_weights",
    "fit_hashed_bag",
    "deterministic_shuffle",
    "source_quality_gate",
    "fit_ngram_lm",
    "lm_perplexity",
    "perplexity_buckets",
    "dedup_lines",
    "dedup_spans",
    "edit_distance_pairs",
    "budget_sample",
    "dedup_keep_best",
    "mixture_sample",
    "weighted_sample",
    "kmeans_assign",
    "kmeans_fit",
    "pack_documents",
    "fit_df",
    "tfidf_vectors",
    "approx_distinct_per_key",
    "bloom_prefilter",
    "build_bloom",
    "TextStatsBatch",
    "text_stats",
    "connected_components",
    "connected_components_distributed",
    "near_dedup_resumable",
    "ann_ivf_topk",
    "build_ivf_index",
    "ann_ivf_query",
    "dedup_keep_min",
    "exact_dedup",
    "hash_pairs_to_int64",
    "minhash_lsh_dedup",
    "containment_pairs",
    "ngram_jaccard_pairs",
    "simhash_dedup",
    "embedding_dedup",
    "ann_topk",
    "ann_lsh_topk",
    "FingerprintBatch",
    "reservoir_per_key",
    "curriculum_order",
    "curriculum_order_sql",
    "sample_uniform",
    "stratified_split",
    "approx_distinct",
    "TDigest",
    "approx_quantiles",
    "ModelScoreBatch",
    "model_score_stage",
    "clean_text",
    "html_to_text",
    "snapshot_diff",
    "degree_table",
    "connected_components_graph",
    "pagerank",
    "triangle_count",
    "anchor_text_table",
    "hits",
    "hits_fixedpoint",
    "clustering_coefficients",
    "kcore_members",
    "sample_neighbors",
    "triangle_count_approx",
    "khop_edges",
    "sentence_split",
    "normalize_nfc",
    "json_extract_field",
    "compression_ratio",
    "gopher_quality",
    "build_contamination_index",
    "flag_contaminated",
    "redact_pii",
    "chunk_documents",
    "ByteBPE",
    "chunk_documents_tokens",
    "detokenize",
    "tokenize_bpe",
    "train_bpe",
    "train_bpe_on_dataset",
    "word_frequencies",
    "DecodeImageBatch",
    "ExtractAudioFeaturesBatch",
    "SampleFramesBatch",
    "decode_stage",
    "decode_png",
    "encode_png",
    "parse_urls",
    "extract_links",
    "normalize_urls",
    "domain_quota",
    "blocklist_filter",
    "LogRegModel",
    "fit_logreg",
    "score_logreg",
    "PCAModel",
    "fit_pca",
    "project_pca",
    "collocation_counts",
    "pmi_collocations",
    "lexical_diversity",
    "payload_bytes",
    "rebalance_shards",
    "rebalance_shards_resumable",
    "read_rebalanced",
]
