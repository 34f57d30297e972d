/**
 * @file
 * Paper-scale GPT model descriptions and the standard analytic
 * formulas for their parameter counts and training FLOPs
 * (Narayanan et al., SC'21 -- the Megatron-LM paper the evaluation
 * follows).
 */

#ifndef OPTIMUS_CLUSTER_MODEL_SPEC_HH
#define OPTIMUS_CLUSTER_MODEL_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

namespace optimus
{

/** Architecture of one paper-scale GPT variant. */
struct GptModelSpec
{
    std::string name;
    int64_t layers = 52;
    int64_t hidden = 1920;
    int64_t heads = 24;
    int64_t seqLen = 1024;
    int64_t vocab = 51200;

    /**
     * Total parameter count:
     * 12 L h^2 + 13 L h + (V + S) h + 2h
     * (attention + MLP weights, biases + norms, embeddings).
     */
    int64_t paramCount() const;

    /**
     * Training FLOPs for one sequence (forward + backward with
     * activation recomputation), per Narayanan et al.:
     * 96 S L h^2 (1 + S/(6h) + V/(16 L h)).
     */
    double flopsPerSequence() const;

    /** Forward-only FLOPs for one sequence (1/4 of training). */
    double forwardFlopsPerSequence() const;

    /** Activation bytes crossing a stage boundary per sequence
     *  (fp16): S * h * 2. */
    double boundaryBytesPerSequence() const;

    /** Embedding table bytes (fp32 gradients): V * h * 4. */
    double embeddingTableBytes() const;

    /** GPT-2.5B: 52 layers, hidden 1920 (Table 1). */
    static GptModelSpec gpt2_5b();
    /** GPT-8.3B: 72 layers, hidden 3072 (Table 1). */
    static GptModelSpec gpt8_3b();
    /** GPT-9.2B: 80 layers, hidden 3072 (Fig 14). */
    static GptModelSpec gpt9_2b();
    /** GPT-39B: 48 layers, hidden 8192 (Fig 16 scale point). */
    static GptModelSpec gpt39b();
    /** GPT-175B: 96 layers, hidden 12288 (GPT-3, Fig 16). */
    static GptModelSpec gpt175b();
};

} // namespace optimus

#endif // OPTIMUS_CLUSTER_MODEL_SPEC_HH
