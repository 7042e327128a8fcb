from .ids import assign_ids
from .langid import LangIdStage
from .perplexity import PerplexityStage
from .minhash import MinHashStage

__all__ = [
    "assign_ids",
    "LangIdStage",
    "PerplexityStage",
    "MinHashStage",
]
