#include "layers.hh"

#include "bench.hh"
#include "compress/powersgd.hh"
#include "nn/activation.hh"
#include "nn/attention.hh"
#include "nn/embedding.hh"
#include "nn/layernorm.hh"
#include "nn/linear.hh"
#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "runtime/runtime.hh"
#include "tensor/arena.hh"
#include "tensor/matmul.hh"

using namespace optimus;

namespace perfbench
{

namespace
{

/** Forward then backward through one Train-mode layer. */
void
forwardBackward(Layer &layer, const Tensor &x, const Tensor &dy)
{
    Tensor y = layer.forward(x);
    Tensor dx = layer.backward(dy);
}

/** Random [rows x cols] activations. */
Tensor
randomActs(int64_t rows, int64_t cols, Rng &rng)
{
    return Tensor::randn({rows, cols}, rng, 0.0f, 1.0f);
}

std::vector<int32_t>
randomTokens(int64_t n, int64_t vocab, Rng &rng)
{
    std::vector<int32_t> tokens(n);
    for (auto &t : tokens)
        t = static_cast<int32_t>(rng.uniformInt(vocab));
    return tokens;
}

} // namespace

NnTimes
timeTrainLayers(const GptConfig &model, int64_t batch)
{
    const int64_t h = model.hidden;
    const int64_t rows = batch * model.seqLen;
    Rng rng(model.seed);
    Workspace arena("perfbench.nn");
    WorkspaceScope scope(&arena);
    SerialRegion inline_regions;
    NnTimes t;

    EmbeddingLayer embedding("emb", model.vocab, h, model.seqLen, rng);
    const std::vector<int32_t> tokens =
        randomTokens(rows, model.vocab, rng);
    const Tensor x = randomActs(rows, h, rng);
    const Tensor dy = randomActs(rows, h, rng);
    t.embedding = medianCallSeconds([&] {
        Tensor out = embedding.forward(tokens, batch, model.seqLen);
        embedding.backward(dy);
    });

    LayerNorm norm("ln", h);
    t.layernorm = medianCallSeconds([&] { forwardBackward(norm, x, dy); });

    Linear qkv("qkv", h, 3 * h, rng);
    const Tensor dqkv = randomActs(rows, 3 * h, rng);
    t.qkv = medianCallSeconds([&] { forwardBackward(qkv, x, dqkv); });

    Linear proj("proj", h, h, rng);
    t.proj = medianCallSeconds([&] { forwardBackward(proj, x, dy); });

    MultiHeadAttention attention("attn", h, model.heads, model.seqLen,
                                 rng);
    const double attention_total = medianCallSeconds(
        [&] { forwardBackward(attention, x, dy); });
    t.attentionCore = attention_total - t.qkv - t.proj;

    Linear fc1("fc1", h, 4 * h, rng);
    Gelu gelu;
    Linear fc2("fc2", 4 * h, h, rng);
    t.mlp = medianCallSeconds([&] {
        Tensor y = fc2.forward(gelu.forward(fc1.forward(x)));
        Tensor dx = fc1.backward(gelu.backward(fc2.backward(dy)));
    });

    OutputHead head(embedding.tokenTable());
    SoftmaxCrossEntropy loss;
    const std::vector<int32_t> targets =
        randomTokens(rows, model.vocab, rng);
    t.headLoss = medianCallSeconds([&] {
        loss.forward(head.forward(x), targets);
        Tensor dx = head.backward(loss.backward());
    });

    GptModel replica(model);
    AdamOptimizer adam(replica.params(), 1e-3f);
    t.optimizer = medianCallSeconds([&] {
        adam.step();
        adam.zeroGrad();
    });
    return t;
}

NnTimes
timeDecodeLayers(const GptConfig &model, int64_t context)
{
    const int64_t h = model.hidden;
    Rng rng(model.seed);
    Workspace arena("perfbench.decode");
    WorkspaceScope scope(&arena);
    SerialRegion inline_regions;
    NnTimes t;

    EmbeddingLayer embedding("emb", model.vocab, h, model.seqLen, rng);
    const int32_t token = 1;
    t.embedding = medianCallSeconds(
        [&] { Tensor out = embedding.embedRows(&token, 1, context); });

    const Tensor x = randomActs(1, h, rng);
    LayerNorm norm("ln", h);
    norm.setMode(Mode::Infer);
    t.layernorm = medianCallSeconds([&] { Tensor y = norm.forward(x); });

    Linear qkv("qkv", h, 3 * h, rng);
    qkv.setMode(Mode::Infer);
    t.qkv = medianCallSeconds([&] { Tensor y = qkv.forward(x); });

    Linear proj("proj", h, h, rng);
    proj.setMode(Mode::Infer);
    t.proj = medianCallSeconds([&] { Tensor y = proj.forward(x); });

    MultiHeadAttention attention("attn", h, model.heads, model.seqLen,
                                 rng);
    attention.setMode(Mode::Infer);
    KvCache cache;
    cache.ensure(model.seqLen, h);
    attention.forwardCached(randomActs(context, h, rng), cache);
    const double attention_total = medianCallSeconds([&] {
        cache.len = context;
        Tensor y = attention.forwardCached(x, cache);
    });
    t.attentionCore = attention_total - t.qkv - t.proj;

    Linear fc1("fc1", h, 4 * h, rng);
    Gelu gelu;
    Linear fc2("fc2", 4 * h, h, rng);
    fc1.setMode(Mode::Infer);
    gelu.setMode(Mode::Infer);
    fc2.setMode(Mode::Infer);
    t.mlp = medianCallSeconds(
        [&] { Tensor y = fc2.forward(gelu.forward(fc1.forward(x))); });

    OutputHead head(embedding.tokenTable());
    head.setMode(Mode::Infer);
    t.headLoss = medianCallSeconds([&] { Tensor y = head.forward(x); });
    return t;
}

GemmRate
timeGemm(int64_t rows, int64_t in, int64_t out)
{
    Rng rng(7);
    Workspace arena("perfbench.gemm");
    WorkspaceScope scope(&arena);
    const Tensor x = randomActs(rows, in, rng);
    const Tensor w = randomActs(in, out, rng);
    const Tensor dy = randomActs(rows, out, rng);
    Tensor dw = Tensor::zeros(in, out);
    GemmRate rate;
    rate.seconds = medianCallSeconds([&] {
        Tensor y = matmul(x, w);
        Tensor dx = matmulNT(dy, w);
        matmulAccTN(dw, x, dy);
    });
    const double flops = 3.0 * 2.0 * static_cast<double>(rows) *
                         static_cast<double>(in) *
                         static_cast<double>(out);
    rate.gflops = flops / rate.seconds * 1e-9;
    return rate;
}

double
powerSgdMelemPerS(const std::vector<CompressShape> &shapes)
{
    Rng rng(11);
    Workspace arena("perfbench.powersgd");
    WorkspaceScope scope(&arena);
    double seconds = 0.0;
    double elems = 0.0;
    for (const CompressShape &shape : shapes) {
        PowerSgdCompressor compressor(shape.rank);
        const Tensor input = randomActs(shape.rows, shape.cols, rng);
        Tensor output;
        seconds += medianCallSeconds(
            [&] { compressor.compress(input, output); });
        elems += static_cast<double>(shape.rows * shape.cols);
    }
    return elems / seconds * 1e-6;
}

double
dispatchMicros()
{
    const int64_t chunks = runtimeThreads();
    const auto empty = [](int64_t, int64_t) {};
    return 1e6 *
           medianCallSeconds([&] { parallelFor(0, chunks, 1, empty); });
}

double
sampleSeconds(const LmDataset &data, int64_t batch, int calls)
{
    Rng rng(3);
    std::vector<LmBatch> batches(calls);
    return medianCallSeconds([&] {
        for (LmBatch &b : batches)
            data.sampleBatchInto(b, batch, rng);
    });
}

} // namespace perfbench
