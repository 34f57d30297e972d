#include "parallel/stage_module.hh"

#include "util/logging.hh"

namespace optimus
{

StageModule::StageModule(const GptConfig &config, int stage,
                         int num_stages)
    : config_(config), stage_(stage), numStages_(num_stages)
{
    OPTIMUS_ASSERT(num_stages >= 1);
    OPTIMUS_ASSERT(stage >= 0 && stage < num_stages);
    OPTIMUS_ASSERT(config.layers % num_stages == 0);

    const int64_t per_stage = config.layers / num_stages;
    const int64_t begin = stage * per_stage;
    const int64_t end = begin + per_stage;
    for (int64_t i = begin; i < end; ++i)
        blocks_.push_back(buildGptBlock(config, i));

    if (isFirst())
        embedding_ = buildGptEmbedding(config);
    if (isLast()) {
        finalNorm_ = buildGptFinalNorm(config);
        ParamPtr table;
        if (isFirst()) {
            // Single-stage: true weight tying, one shared Param.
            table = embedding_->tokenTable();
        } else {
            // Multi-stage: own copy with identical init, kept
            // consistent by embedding synchronization.
            table = buildGptEmbedding(config)->tokenTable();
        }
        head_ = std::make_unique<OutputHead>(std::move(table));
    }
}

Tensor
StageModule::forwardTokens(const std::vector<int32_t> &tokens,
                           int64_t batch)
{
    OPTIMUS_ASSERT(isFirst());
    Tensor h = embedding_->forward(tokens, batch, config_.seqLen);
    return forwardHidden(h);
}

Tensor
StageModule::forwardHidden(const Tensor &h)
{
    Tensor out = h;
    for (auto &block : blocks_)
        out = block->forward(out);
    if (isLast()) {
        out = finalNorm_->forward(out);
        out = head_->forward(out);
    }
    return out;
}

Tensor
StageModule::backwardHidden(const Tensor &dy)
{
    Tensor grad = dy;
    if (isLast()) {
        grad = head_->backward(grad);
        grad = finalNorm_->backward(grad);
    }
    for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it)
        grad = (*it)->backward(grad);
    return grad;
}

void
StageModule::backwardTokens(const Tensor &dx)
{
    OPTIMUS_ASSERT(isFirst());
    embedding_->backward(dx);
}

std::vector<ParamPtr>
StageModule::params() const
{
    std::vector<ParamPtr> all;
    if (embedding_) {
        for (const auto &p : embedding_->params())
            all.push_back(p);
    }
    for (const auto &block : blocks_) {
        for (const auto &p : block->params())
            all.push_back(p);
    }
    if (finalNorm_) {
        for (const auto &p : finalNorm_->params())
            all.push_back(p);
    }
    if (head_) {
        for (const auto &p : head_->params())
            all.push_back(p);
    }
    return dedupParams(all);
}

ParamPtr
StageModule::embeddingTable() const
{
    if (head_)
        return head_->tokenTable();
    if (embedding_)
        return embedding_->tokenTable();
    return nullptr;
}

ParamPtr
StageModule::positionTable() const
{
    return embedding_ ? embedding_->positionTable() : nullptr;
}

void
StageModule::setMode(Mode mode)
{
    for (auto &block : blocks_)
        block->setMode(mode);
    if (finalNorm_)
        finalNorm_->setMode(mode);
    if (head_)
        head_->setMode(mode);
}

Tensor
StageModule::inferEmbed(const int32_t *tokens, int64_t n,
                        int64_t pos0) const
{
    OPTIMUS_ASSERT(isFirst());
    return embedding_->embedRows(tokens, n, pos0);
}

// optlint:hot — serving path (zero-allocation contract).
void
StageModule::inferEmbedInto(const int32_t *tokens, int64_t n,
                            int64_t pos0, Tensor &out,
                            int64_t row0) const
{
    OPTIMUS_ASSERT(isFirst());
    embedding_->embedRowsInto(tokens, n, pos0, out, row0);
}

// optlint:hot — serving path (zero-allocation contract).
Tensor
StageModule::inferBlocks(const Tensor &h, KvCache *caches)
{
    const KvSegment segment{caches, h.rows()};
    return inferBlocks(h, {&segment, 1});
}

// optlint:hot — serving path (zero-allocation contract).
Tensor
StageModule::inferBlocks(const Tensor &h,
                         std::span<const KvSegment> segments)
{
    Tensor out = h;
    for (size_t i = 0; i < blocks_.size(); ++i)
        out = blocks_[i]->forwardSegments(out, segments,
                                          static_cast<int64_t>(i));
    return out;
}

// optlint:hot — serving path (zero-allocation contract).
Tensor
StageModule::inferLogits(const Tensor &h)
{
    OPTIMUS_ASSERT(isLast());
    Tensor out = finalNorm_->forward(h);
    return head_->forward(out);
}

void
StageModule::clearStash()
{
    if (embedding_)
        embedding_->clearStash();
    for (auto &block : blocks_)
        block->clearStash();
    if (finalNorm_)
        finalNorm_->clearStash();
    if (head_)
        head_->clearStash();
}

} // namespace optimus
